package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, exp := range All() {
		exp := exp
		t.Run(exp.Name, func(t *testing.T) {
			rep, err := exp.Run(Options{Seed: 1, Quick: true})
			if err != nil {
				t.Fatalf("%s: %v", exp.Name, err)
			}
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

// TestFig1SuccessDropsWithUtilization checks the qualitative law of Fig. 1.
func TestFig1SuccessDropsWithUtilization(t *testing.T) {
	rep, err := Fig1(Options{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("tables = %d, want 2 (two traces)", len(rep.Tables))
	}
}

// TestDeterministicReports: equal options must give byte-identical output.
// The one exception is the Fig 6(e) probe table, which holds real (not
// simulated) wall time by design; it is dropped before comparing. Every
// headline is simulated and must match.
func TestDeterministicReports(t *testing.T) {
	a, err := Fig6(Options{Seed: 9, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig6(Options{Seed: 9, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if dropRealTimeTables(a) != dropRealTimeTables(b) {
		t.Error("same-seed fig6 reports differ")
	}
	for k, av := range a.Headlines {
		if bv, ok := b.Headlines[k]; !ok || av != bv {
			t.Errorf("headline %q: %v vs %v", k, av, bv)
		}
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
