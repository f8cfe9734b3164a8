package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// deterministic are the counters that must read bit-identically on
// every pass of the same shape over the same seed.
var deterministic = []string{"drain_avg_ect_s", "migration.cost_mbps", "sched.rounds", "wal.replayed_records"}

// TestSmoke runs every workload at 1/20 scale, shortened, once plain and
// once traced: the drain must be a pure function of the seed, and the
// scheduler wrapper and backend decorators must not change what the
// engines compute. It also checks the result line's schema.
func TestSmoke(t *testing.T) {
	for _, full := range workloads {
		w := full.scaled(20)
		t.Run(w.name, func(t *testing.T) {
			tmp := t.TempDir()
			pass := func(tr *tracer) *runResult {
				t.Helper()
				res, err := runWorkload(runConfig{w: w, seed: 1, paced: 500 * time.Millisecond, tmp: tmp, short: true, tr: tr})
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range res.failures {
					t.Errorf("self-check failed: %s", f)
				}
				return res
			}
			first := pass(nil)
			tr := newTracer(w)
			traced := pass(tr)
			tr.report(traced, os.Stderr)
			if err := tr.write(filepath.Join(tmp, "out")); err != nil {
				t.Fatal(err)
			}
			for _, name := range deterministic {
				if first.m[name] != traced.m[name] {
					t.Errorf("%s differs between a plain and a traced run of seed 1: %v vs %v", name, first.m[name], traced.m[name])
				}
			}
			if first.m["drain_avg_ect_s"] <= 0 {
				t.Errorf("drain_avg_ect_s = %v, want > 0", first.m["drain_avg_ect_s"])
			}
			if w.name == "paper_plan" && first.m["migration.cost_mbps"] <= 0 {
				t.Errorf("paper_plan planned no migration")
			}
			if w.shards <= 1 && traced.m["span.exec_p50_ms"] <= 0 {
				t.Errorf("traced pass recorded no complete span")
			}
			if w.shards > 1 && traced.m["shard.backend_wait_us"] <= 0 {
				t.Errorf("traced pass timed no gateway backend call")
			}

			// The result line: exactly the contract's keys, every metric of
			// the table present with its unit, every end-to-end metric
			// measured.
			for _, c := range []struct {
				res  *runResult
				defs []metricDef
			}{{first, endToEnd}, {traced, perLayer}} {
				raw, err := json.Marshal(c.res.contract(c.defs))
				if err != nil {
					t.Fatal(err)
				}
				var line map[string]json.RawMessage
				if err := json.Unmarshal(raw, &line); err != nil {
					t.Fatal(err)
				}
				if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
					t.Errorf("result line keys: %s", raw)
				}
				var metrics map[string]value
				if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
					t.Fatal(err)
				}
				if len(metrics) != len(c.defs) {
					t.Errorf("%d metrics reported, table has %d", len(metrics), len(c.defs))
				}
				for _, d := range c.defs {
					if got, ok := metrics[d.name]; !ok || got.Unit != d.unit {
						t.Errorf("metric %s: reported %+v, want unit %q", d.name, got, d.unit)
					}
				}
			}
			for _, d := range endToEnd {
				if first.m[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, first.m[d.name])
				}
			}
		})
	}
}

// TestLayers runs the direct layer measurements and requires each to
// produce a positive number under a name the per-layer table lists.
func TestLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("about 3 s")
	}
	m, err := runLayers(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, d := range perLayer {
		listed[d.name] = true
	}
	for name, v := range m {
		if !listed[name] {
			t.Errorf("layer metric %s is not in the per-layer table", name)
		}
		if v <= 0 {
			t.Errorf("layer metric %s = %v, want > 0", name, v)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in metrics.go
// and workloads.go saying the same thing, inside the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || len(doc.Command) == 0 {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside the allowed charset", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		unique(w.name)
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %+v, workloads.go has %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics listed, %d defined", kind, len(got), len(want))
		}
		for i, d := range want {
			unique(d.name)
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, metrics.go has %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound of %s", kind, d.name)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s must carry no bound", kind, d.name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
}
