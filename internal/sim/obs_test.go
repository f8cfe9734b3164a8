package sim_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/obs"
	"netupdate/internal/routing"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

// tracedRun simulates a fixed workload with a JSONL tracer attached and
// returns the raw trace bytes.
func tracedRun(t *testing.T, mk func() sched.Scheduler) []byte {
	t.Helper()
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(7))
	gen, err := trace.NewGenerator(1, trace.YahooLike{}, ft.Hosts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.FillBackground(net, gen, 0.6, 0); err != nil {
		t.Fatal(err)
	}
	planner := core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)
	events := gen.Events(12, 4, 16)

	var buf bytes.Buffer
	tr := obs.NewTracer(obs.NewJSONLSink(&buf), nil)
	eng := sim.NewEngine(planner, mk(), sim.Config{})
	eng.SetTracer(tr)
	if _, err := eng.Run(events); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceDeterminism checks the obs acceptance criterion: the same seed
// and config produce byte-identical JSONL traces across repeated runs —
// virtual-clock stamps only, no wall-clock leakage.
func TestTraceDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"lmtf", func() sched.Scheduler { return sched.NewLMTF(4, 1) }},
		{"plmtf", func() sched.Scheduler { return sched.NewPLMTF(4, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := tracedRun(t, tc.mk)
			second := tracedRun(t, tc.mk)
			if len(first) == 0 {
				t.Fatal("empty trace")
			}
			if !bytes.Equal(first, second) {
				t.Error("two runs with the same seed produced different trace bytes")
			}
		})
	}
}

// TestTraceContents sanity-checks the record stream structure: a run
// record first, one arrival and one span per event, and round records
// whose claims include the head, with candidates carrying the sampled
// probe outcomes.
func TestTraceContents(t *testing.T) {
	raw := tracedRun(t, func() sched.Scheduler { return sched.NewPLMTF(4, 1) })
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	var (
		runs, arrivals, spans, rounds int
		candidates                    int
		spanEvents                    = map[int64]bool{}
	)
	for i, line := range lines {
		var r obs.Record
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		switch r.Kind {
		case obs.KindRun:
			runs++
			if i != 0 {
				t.Errorf("run record at line %d, want first", i)
			}
			if r.Run.Events != 12 {
				t.Errorf("run record events = %d, want 12", r.Run.Events)
			}
		case obs.KindArrival:
			arrivals++
		case obs.KindSpan:
			spans++
			s := r.Span
			if spanEvents[s.Event] {
				t.Errorf("event %d completed twice", s.Event)
			}
			spanEvents[s.Event] = true
			if s.CompletionVT < s.StartVT || s.StartVT < s.ArrivalVT {
				t.Errorf("event %d: lifecycle out of order: %+v", s.Event, s)
			}
			if got := s.CompletionVT - s.ArrivalVT; got != s.ECTNs {
				t.Errorf("event %d: ECT %d != completion-arrival %d", s.Event, s.ECTNs, got)
			}
		case obs.KindRound:
			rounds++
			rr := r.Round
			candidates += len(rr.Candidates)
			if len(rr.Claims) == 0 || rr.Claims[0].Event != rr.Head {
				t.Errorf("round %d: first claim %+v is not head %d", rr.Round, rr.Claims, rr.Head)
			}
			headSampled := false
			for _, c := range rr.Candidates {
				if c.Event == rr.Head {
					headSampled = true
				}
			}
			if len(rr.Candidates) > 0 && !headSampled {
				t.Errorf("round %d: head %d missing from candidates", rr.Round, rr.Head)
			}
		default:
			t.Errorf("line %d: unknown kind %q", i, r.Kind)
		}
	}
	if runs != 1 {
		t.Errorf("runs = %d, want 1", runs)
	}
	if arrivals != 12 || spans != 12 {
		t.Errorf("arrivals/spans = %d/%d, want 12/12", arrivals, spans)
	}
	if rounds == 0 || candidates == 0 {
		t.Errorf("rounds = %d, candidates = %d, want > 0", rounds, candidates)
	}
	if rounds > 12 {
		t.Errorf("rounds = %d > events; P-LMTF should co-schedule some", rounds)
	}
}

// TestTracedRunMatchesUntraced checks the nil fast path: attaching a
// tracer must not change the schedule or any collected metric.
func TestTracedRunMatchesUntraced(t *testing.T) {
	run := func(tr *obs.Tracer) (time.Duration, time.Duration, int) {
		ft, err := topology.NewFatTree(4, topology.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(7))
		gen, err := trace.NewGenerator(1, trace.YahooLike{}, ft.Hosts())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.FillBackground(net, gen, 0.6, 0); err != nil {
			t.Fatal(err)
		}
		planner := core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)
		eng := sim.NewEngine(planner, sched.NewPLMTF(4, 1), sim.Config{})
		eng.SetTracer(tr)
		col, err := eng.Run(gen.Events(12, 4, 16))
		if err != nil {
			t.Fatal(err)
		}
		return col.AvgECT(), col.Makespan, col.TotalPlanEvals()
	}
	reg := obs.NewRegistry()
	traced := obs.NewTracer(obs.NewRingSink(256), obs.NewSimMetrics(reg))
	a1, m1, e1 := run(nil)
	a2, m2, e2 := run(traced)
	if a1 != a2 || m1 != m2 || e1 != e2 {
		t.Fatalf("tracing changed the simulation: (%v,%v,%d) vs (%v,%v,%d)", a1, m1, e1, a2, m2, e2)
	}
}
