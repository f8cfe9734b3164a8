package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"netupdate/internal/obs"
)

// paper holds every All() experiment at seed 1, at the paper's size,
// computed once per test binary through RunAll. The smoke, Fig 1,
// determinism and golden tests all read it.
var paper struct {
	once    sync.Once
	reports []*Report
	err     error
}

// paperReports returns the fixture's reports in All() order.
func paperReports(t *testing.T) []*Report {
	t.Helper()
	paper.once.Do(func() {
		var jobs []Job
		for _, e := range All() {
			jobs = append(jobs, Job{Experiment: e, Seed: 1})
		}
		paper.reports, paper.err = RunAll(jobs, nil)
	})
	if paper.err != nil {
		t.Fatal(paper.err)
	}
	return paper.reports
}

// paperReport returns the fixture's report of one experiment.
func paperReport(t *testing.T, name string) *Report {
	t.Helper()
	for _, rep := range paperReports(t) {
		if rep.Name == name {
			return rep
		}
	}
	t.Fatalf("no %s report in the fixture", name)
	return nil
}

func TestAllExperimentsRun(t *testing.T) {
	for i, exp := range All() {
		t.Run(exp.Name, func(t *testing.T) {
			rep := paperReports(t)[i]
			if rep.Name != exp.Name {
				t.Errorf("report name = %q, want %q", rep.Name, exp.Name)
			}
			if len(rep.Tables) == 0 {
				t.Error("report has no tables")
			}
			for _, tab := range rep.Tables {
				if tab.NumRows() == 0 {
					t.Errorf("table %q has no rows", tab.Title())
				}
			}
			out := rep.String()
			if !strings.Contains(out, exp.Name) {
				t.Error("rendered report missing its name")
			}
			for k, v := range rep.Headlines {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("headline %q = %v", k, v)
				}
			}
		})
	}
}

// TestPaperFiguresMatchGolden pins every figure at seed 1: the fixture,
// rendered as `netupdate -all` prints it minus its real wall-time lines
// (the "(… completed in …)" footers and the Fig 6(e) table), must equal
// testdata/all.golden byte for byte. Costs, ECTs, rounds and simulated
// plan times are fixed by the seed, and plan time is charged per Eval, so
// a change that moves a decision or an Eval count moves a table. A
// mismatch leaves the new rendering in a temp file; re-capturing after a
// declared decision change is a cp of that file.
func TestPaperFiguresMatchGolden(t *testing.T) {
	var b strings.Builder
	for _, rep := range paperReports(t) {
		b.WriteString(dropRealTimeTables(rep))
		b.WriteByte('\n')
	}
	want, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	line := 0
	for line < len(gotLines) && line < len(wantLines) && gotLines[line] == wantLines[line] {
		line++
	}
	f, err := os.CreateTemp("", "all-*.golden")
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteString(got)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Errorf("figures differ from testdata/all.golden from line %d:\n got  %q\n want %q\n"+
		"re-capture a declared decision change with: cp %s internal/experiments/testdata/all.golden",
		line+1, lineAt(gotLines, line), lineAt(wantLines, line), f.Name())
}

// lineAt returns lines[i], or "" past the end.
func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}

func TestFindExperiment(t *testing.T) {
	if _, ok := Find("fig6"); !ok {
		t.Error("Find(fig6) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) succeeded")
	}
}

// TestFig2MatchesPaperArithmetic pins the toy numbers: event-level 22/3,
// equal tails.
func TestFig2MatchesPaperArithmetic(t *testing.T) {
	rep, err := Fig2(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Headlines["event-level avg ECT (paper 22/3≈7.33)"]; math.Abs(got-22.0/3) > 0.01 {
		t.Errorf("event-level avg = %v, want 22/3", got)
	}
	if got := rep.Headlines["tails equal"]; got != 1 {
		t.Errorf("tails equal = %v, want 1", got)
	}
	fl := rep.Headlines["flow-level avg ECT (paper 32/3≈10.67)"]
	ev := rep.Headlines["event-level avg ECT (paper 22/3≈7.33)"]
	if fl <= ev {
		t.Errorf("flow-level avg %v not worse than event-level %v", fl, ev)
	}
}

// TestFig3MatchesPaperArithmetic pins Fig. 3's numbers: FIFO avg 7s,
// reorder avg 5s, tail 9s.
func TestFig3MatchesPaperArithmetic(t *testing.T) {
	rep, err := Fig3(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{
		"fifo avg ECT (paper 7)":    7,
		"reorder avg ECT (paper 5)": 5,
		"tail unchanged (paper 9)":  9,
	}
	for k, want := range checks {
		if got := rep.Headlines[k]; math.Abs(got-want) > 0.01 {
			t.Errorf("%s = %v, want %v", k, got, want)
		}
	}
}

// TestFig1SuccessDropsWithUtilization checks the qualitative law of
// Fig. 1 on both traces: no class's success probability rises with
// utilization, and a large flow never fits more often than a small one.
func TestFig1SuccessDropsWithUtilization(t *testing.T) {
	rep := paperReport(t, "fig1")
	if len(rep.Tables) != 2 {
		t.Fatalf("tables = %d, want 2 (two traces)", len(rep.Tables))
	}
	for _, tab := range rep.Tables {
		var b bytes.Buffer
		if err := tab.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(&b).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		// Columns: utilization, small, medium, large.
		var prev []float64
		for _, row := range rows[1:] {
			p := make([]float64, 3)
			for c := range p {
				if p[c], err = strconv.ParseFloat(row[c+1], 64); err != nil {
					t.Fatal(err)
				}
				if prev != nil && p[c] > prev[c] {
					t.Errorf("%s: %s rises to %v at utilization %s", tab.Title(), rows[0][c+1], p[c], row[0])
				}
			}
			if p[2] > p[0] {
				t.Errorf("%s: at utilization %s large %v > small %v", tab.Title(), row[0], p[2], p[0])
			}
			prev = p
		}
	}
}

// TestDeterministicReports: fig6 as the fixture computed it, beside other
// jobs in RunAll, equals a fresh serial run at the same seed. The one
// exception is the Fig 6(e) probe table, which holds real (not simulated)
// wall time by design; it is dropped before comparing. Every headline is
// simulated and must match.
func TestDeterministicReports(t *testing.T) {
	a := paperReport(t, "fig6")
	b, err := Fig6(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dropRealTimeTables(a) != dropRealTimeTables(b) {
		t.Error("concurrent and serial fig6 reports differ")
	}
	for k, av := range a.Headlines {
		if bv, ok := b.Headlines[k]; !ok || av != bv {
			t.Errorf("headline %q: %v vs %v", k, av, bv)
		}
	}
}

// TestRunAllMatchesSerial: RunAll writes the same trace bytes, and its
// reports render the same, as the jobs run one after another through
// Experiment.Run on one shared tracer.
func TestRunAllMatchesSerial(t *testing.T) {
	fig9, _ := Find("fig9")
	split, _ := Find("ablation-split")
	jobs := []Job{{fig9, 1}, {split, 1}, {fig9, 2}}

	var got bytes.Buffer
	reports, err := RunAll(jobs, &got)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	sink := obs.NewJSONLSink(&want)
	tracer := obs.NewTracer(sink, nil)
	for i, job := range jobs {
		rep, err := job.Experiment.Run(Options{Seed: job.Seed, Trace: tracer})
		if err != nil {
			t.Fatal(err)
		}
		if dropRealTimeTables(reports[i]) != dropRealTimeTables(rep) {
			t.Errorf("job %d (%s@%d): report differs from the serial run", i, job.Experiment.Name, job.Seed)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("trace: %d bytes from RunAll, %d serial; want equal and non-empty", got.Len(), want.Len())
	}
}

// TestRunAllReturnsFirstError: a failing job fails the run with its own
// error, the first one in job order.
func TestRunAllReturnsFirstError(t *testing.T) {
	errA, errB := errors.New("a failed"), errors.New("b failed")
	failing := func(err error) Experiment {
		return Experiment{Name: "failing", Run: func(Options) (*Report, error) { return nil, err }}
	}
	fig2, _ := Find("fig2")
	_, err := RunAll([]Job{{fig2, 1}, {failing(errA), 1}, {failing(errB), 1}}, nil)
	if !errors.Is(err, errA) {
		t.Errorf("RunAll error = %v, want %v", err, errA)
	}
}

// TestAblationOnlineIsTraced: every run of the online ablation (4 gaps ×
// 3 schedulers) opens a "run" record in the trace.
func TestAblationOnlineIsTraced(t *testing.T) {
	online, _ := Find("ablation-online")
	var b bytes.Buffer
	if _, err := RunAll([]Job{{online, 1}}, &b); err != nil {
		t.Fatal(err)
	}
	runs := 0
	for _, line := range bytes.Split(bytes.TrimSpace(b.Bytes()), []byte("\n")) {
		var rec obs.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Kind == obs.KindRun {
			runs++
		}
	}
	if runs != 12 {
		t.Errorf("run records = %d, want 12", runs)
	}
}

// dropRealTimeTables renders a report without the tables that contain real
// wall-clock measurements.
func dropRealTimeTables(rep *Report) string {
	kept := rep.Tables[:0:0]
	for _, tb := range rep.Tables {
		if !strings.Contains(tb.Title(), "wall-time") {
			kept = append(kept, tb)
		}
	}
	trimmed := *rep
	trimmed.Tables = kept
	return trimmed.String()
}
