package netupdate_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// allocBudgetFile records, per benchmark, the allocations one operation
// makes on the toolchain it names. Allocation counts are exact run to
// run, so the file is a gate: a rise is a regression, and a fall is a
// gain that must be written down.
const allocBudgetFile = "testdata/alloc_budgets.json"

// allocBudgets is the budget file's layout.
type allocBudgets struct {
	// Toolchain is the runtime.Version() the figures were taken with;
	// another compiler allocates differently, so the test skips there.
	Toolchain string `json:"toolchain"`
	// Benchmarks lists one row per budgeted benchmark.
	Benchmarks []allocBudget `json:"benchmarks"`
}

// allocBudget is one benchmark's recorded allocation figures.
type allocBudget struct {
	Name        string `json:"name"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
}

// budgeted names the benchmarks the budget file covers and how many
// iterations each is measured over: one for the drains (each iteration
// is a whole run), more for the micro-benchmarks so lazily grown scratch
// settles first.
var budgeted = []struct {
	name  string
	iters int
	fn    func(*testing.B)
}{
	{"PaperRegimeDrain", 1, BenchmarkPaperRegimeDrain},
	{"TracedFIFODrain/k=4", 1, func(b *testing.B) { benchTracedFIFODrain(b, 4) }},
	{"TracedFIFODrain/k=8", 1, func(b *testing.B) { benchTracedFIFODrain(b, 8) }},
	{"FlowsAcross", 200, BenchmarkFlowsAcross},
	{"Probe55", 20, BenchmarkProbe55},
	{"AdmitRollback", 512, BenchmarkAdmitRollback},
}

// Tolerances: a rise above 1 % fails, and so does a fall of 5 % or more
// that the file does not record.
const (
	allocRise = 1.01
	allocFall = 0.95
)

// TestAllocBudgets holds each budgeted benchmark's AllocsPerOp and
// AllocedBytesPerOp to testdata/alloc_budgets.json.
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets: the race detector changes allocation counts")
	}
	raw, err := os.ReadFile(allocBudgetFile)
	if err != nil {
		t.Fatal(err)
	}
	var file allocBudgets
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("%s: %v", allocBudgetFile, err)
	}
	if v := runtime.Version(); v != file.Toolchain {
		t.Skipf("alloc budgets were recorded with %s; this is %s", file.Toolchain, v)
	}
	want := make(map[string]allocBudget, len(file.Benchmarks))
	for _, b := range file.Benchmarks {
		want[b.Name] = b
	}

	// testing.Benchmark reads -test.benchtime; pin it per benchmark and
	// put the caller's value back afterwards.
	bt := flag.Lookup("test.benchtime")
	prev := bt.Value.String()
	defer func() { _ = bt.Value.Set(prev) }()

	var got []allocBudget
	for _, bm := range budgeted {
		if err := bt.Value.Set(fmt.Sprintf("%dx", bm.iters)); err != nil {
			t.Fatal(err)
		}
		r := testing.Benchmark(bm.fn)
		if r.N == 0 {
			t.Fatalf("%s: benchmark failed", bm.name)
		}
		got = append(got, allocBudget{Name: bm.name, AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()})
	}

	stale := false
	for _, g := range got {
		w, ok := want[g.Name]
		if !ok {
			t.Errorf("%s: no budget recorded", g.Name)
			stale = true
			continue
		}
		for _, c := range []struct {
			what      string
			got, want int64
		}{
			{"allocs/op", g.AllocsPerOp, w.AllocsPerOp},
			{"B/op", g.BytesPerOp, w.BytesPerOp},
		} {
			switch {
			case float64(c.got) > float64(c.want)*allocRise:
				t.Errorf("%s: %d %s, budget %d (+%.1f %%)", g.Name, c.got, c.what, c.want, pct(c.got, c.want))
			case float64(c.got) <= float64(c.want)*allocFall:
				t.Errorf("%s: %d %s, budget %d (%.1f %%): record the gain in %s", g.Name, c.got, c.what, c.want, pct(c.got, c.want), allocBudgetFile)
				stale = true
			}
		}
	}
	if stale || t.Failed() {
		var sb strings.Builder
		for _, g := range got {
			line, _ := json.Marshal(g)
			sb.Write(line)
			sb.WriteByte('\n')
		}
		t.Logf("measured on %s:\n%s", runtime.Version(), sb.String())
	}
}

// pct is got's change against want, in percent.
func pct(got, want int64) float64 {
	return 100 * (float64(got) - float64(want)) / float64(want)
}
