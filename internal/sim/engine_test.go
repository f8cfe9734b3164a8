package sim

import (
	"testing"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/flow"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/sched"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

// cleanConfig removes all timing noise except serialized 1-second installs,
// reproducing the unit-slot arithmetic of the paper's Fig. 2.
func cleanConfig() Config {
	return Config{
		InstallTime:   time.Second,
		MigrationRate: 100 * topology.Mbps,
		PlanEvalTime:  time.Nanosecond, // nonzero to exercise accounting
	}
}

// newPlanner builds a planner over an empty k=4 fat-tree; tiny demands
// never congest it, so no event needs migration.
func newPlanner(t *testing.T) (*core.Planner, *topology.FatTree) {
	t.Helper()
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.WidestFit{})
	return core.NewPlanner(migration.NewPlanner(net, 0), 0), ft
}

// fig2Events returns the toy workload of Fig. 2: three events with 3, 4
// and 5 unit flows, all arriving at time zero.
func fig2Events(ft *topology.FatTree) []*core.Event {
	hosts := ft.Hosts()
	mk := func(id flow.EventID, n int) *core.Event {
		specs := make([]flow.Spec, n)
		for i := range specs {
			specs[i] = flow.Spec{
				Src:    hosts[(int(id)*2)%len(hosts)],
				Dst:    hosts[(int(id)*2+1)%len(hosts)],
				Demand: topology.Mbps,
				Size:   0, // pure rule updates; transfers are instant
			}
		}
		return core.NewEvent(id, "toy", 0, specs)
	}
	return []*core.Event{mk(1, 3), mk(2, 4), mk(3, 5)}
}

// within asserts |got-want| <= tol (plan-time accounting adds nanoseconds).
func within(t *testing.T, name string, got, want, tol time.Duration) {
	t.Helper()
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestEngineFIFOReproducesFig2EventLevel(t *testing.T) {
	planner, ft := newPlanner(t)
	events := fig2Events(ft)
	eng := NewEngine(planner, sched.FIFO{}, cleanConfig())
	col, err := eng.Run(events)
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != 3 {
		t.Fatalf("recorded %d events, want 3", col.Len())
	}
	tol := time.Millisecond
	// Event-level serial installs: ECTs 3s, 7s, 12s (Fig. 2b).
	within(t, "U1 ECT", events[0].ECT(), 3*time.Second, tol)
	within(t, "U2 ECT", events[1].ECT(), 7*time.Second, tol)
	within(t, "U3 ECT", events[2].ECT(), 12*time.Second, tol)
	within(t, "avg ECT", col.AvgECT(), 22*time.Second/3, tol)
	within(t, "tail ECT", col.TailECT(), 12*time.Second, tol)
	within(t, "makespan", col.Makespan, 12*time.Second, tol)
}

func TestFlowLevelReproducesFig2Interleaving(t *testing.T) {
	planner, ft := newPlanner(t)
	events := fig2Events(ft)
	fl := NewFlowLevel(planner, cleanConfig())
	col, err := fl.Run(events)
	if err != nil {
		t.Fatal(err)
	}
	tol := time.Millisecond
	// Round-robin interleaving finishes U1 at slot 7, U2 at 10, U3 at 12.
	within(t, "U1 ECT", events[0].ECT(), 7*time.Second, tol)
	within(t, "U2 ECT", events[1].ECT(), 10*time.Second, tol)
	within(t, "U3 ECT", events[2].ECT(), 12*time.Second, tol)
	within(t, "avg ECT", col.AvgECT(), 29*time.Second/3, tol)

	// The headline comparison of Fig. 2: event-level average ECT beats
	// flow-level; tails tie.
	planner2, ft2 := newPlanner(t)
	eng := NewEngine(planner2, sched.FIFO{}, cleanConfig())
	col2, err := eng.Run(fig2Events(ft2))
	if err != nil {
		t.Fatal(err)
	}
	if col2.AvgECT() >= col.AvgECT() {
		t.Errorf("event-level avg ECT %v not better than flow-level %v", col2.AvgECT(), col.AvgECT())
	}
	within(t, "tails tie", col.TailECT(), col2.TailECT(), tol)
}

func TestEngineQueuingDelaysUnderFIFO(t *testing.T) {
	planner, ft := newPlanner(t)
	events := fig2Events(ft)
	eng := NewEngine(planner, sched.FIFO{}, cleanConfig())
	col, err := eng.Run(events)
	if err != nil {
		t.Fatal(err)
	}
	delays := col.QueuingDelays()
	tol := time.Millisecond
	within(t, "U1 delay", delays[0], 0, tol)
	within(t, "U2 delay", delays[1], 3*time.Second, tol)
	within(t, "U3 delay", delays[2], 7*time.Second, tol)
}

func TestEngineIdlesUntilArrival(t *testing.T) {
	planner, ft := newPlanner(t)
	hosts := ft.Hosts()
	ev := core.NewEvent(1, "late", 5*time.Second, []flow.Spec{
		{Src: hosts[0], Dst: hosts[1], Demand: topology.Mbps},
	})
	eng := NewEngine(planner, sched.FIFO{}, cleanConfig())
	col, err := eng.Run([]*core.Event{ev})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Start < 5*time.Second {
		t.Errorf("event started at %v, before its arrival", ev.Start)
	}
	within(t, "ECT excludes idle wait", ev.ECT(), time.Second, time.Millisecond)
	if col.Makespan < 6*time.Second {
		t.Errorf("makespan = %v, want >= 6s", col.Makespan)
	}
}

func TestEngineReleasesEventFlows(t *testing.T) {
	planner, ft := newPlanner(t)
	events := fig2Events(ft)
	eng := NewEngine(planner, sched.FIFO{}, cleanConfig())
	if _, err := eng.Run(events); err != nil {
		t.Fatal(err)
	}
	net := planner.Network()
	if got := net.Registry().Len(); got != 0 {
		t.Errorf("registry holds %d flows after run, want 0 (all released)", got)
	}
	if got := net.Utilization(); got != 0 {
		t.Errorf("utilization = %v after run, want 0", got)
	}
}

func TestEngineKeepFlows(t *testing.T) {
	planner, ft := newPlanner(t)
	events := fig2Events(ft)
	cfg := cleanConfig()
	cfg.KeepFlows = true
	eng := NewEngine(planner, sched.FIFO{}, cfg)
	if _, err := eng.Run(events); err != nil {
		t.Fatal(err)
	}
	if got := planner.Network().Registry().Len(); got != 12 {
		t.Errorf("registry holds %d flows, want 12 (kept)", got)
	}
}

func TestEnginePLMTFCoSchedules(t *testing.T) {
	planner, ft := newPlanner(t)
	events := fig2Events(ft)
	eng := NewEngine(planner, sched.NewPLMTF(4, 1), cleanConfig())
	col, err := eng.Run(events)
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != 3 {
		t.Fatalf("recorded %d events, want 3", col.Len())
	}
	// All three tiny events fit together: one parallel round, makespan ~5s
	// (the longest lane) instead of FIFO's 12s.
	within(t, "makespan", col.Makespan, 5*time.Second, 10*time.Millisecond)
	within(t, "avg ECT", col.AvgECT(), 4*time.Second, 10*time.Millisecond)
	for _, ev := range events {
		within(t, "co-scheduled start", ev.Start, 0, 10*time.Millisecond)
	}
}

func TestEngineErrorOnInvalidSpec(t *testing.T) {
	planner, ft := newPlanner(t)
	hosts := ft.Hosts()
	bad := core.NewEvent(1, "bad", 0, []flow.Spec{
		{Src: hosts[0], Dst: hosts[0], Demand: topology.Mbps},
	})
	eng := NewEngine(planner, sched.FIFO{}, cleanConfig())
	if _, err := eng.Run([]*core.Event{bad}); err == nil {
		t.Error("Run with invalid spec succeeded")
	}
}

// TestEngineIntegrationUnderLoad runs every scheduler on a loaded k=4
// fat-tree and checks global invariants.
func TestEngineIntegrationUnderLoad(t *testing.T) {
	schedulers := []func() sched.Scheduler{
		func() sched.Scheduler { return sched.FIFO{} },
		func() sched.Scheduler { return sched.Reorder{} },
		func() sched.Scheduler { return sched.NewLMTF(2, 11) },
		func() sched.Scheduler { return sched.NewPLMTF(2, 11) },
	}
	for _, mk := range schedulers {
		s := mk()
		t.Run(s.Name(), func(t *testing.T) {
			ft, err := topology.NewFatTree(4, topology.Gbps)
			if err != nil {
				t.Fatal(err)
			}
			net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.WidestFit{})
			gen, err := trace.NewGenerator(21, trace.YahooLike{}, ft.Hosts())
			if err != nil {
				t.Fatal(err)
			}
			background, err := trace.FillBackground(net, gen, 0.4, 0)
			if err != nil {
				t.Fatal(err)
			}
			planner := core.NewPlanner(migration.NewPlanner(net, 0), 0)
			events := gen.Events(8, 3, 10)
			eng := NewEngine(planner, s, Config{})
			col, err := eng.Run(events)
			if err != nil {
				t.Fatal(err)
			}
			if col.Len() != 8 {
				t.Fatalf("recorded %d events, want 8", col.Len())
			}
			for _, ev := range events {
				if !ev.Done {
					t.Errorf("%v not done", ev)
				}
				if ev.Completion < ev.Start || ev.Start < ev.Arrival {
					t.Errorf("%v has inconsistent times: %v %v %v", ev, ev.Arrival, ev.Start, ev.Completion)
				}
			}
			// All event flows released; background intact.
			if got := net.Registry().Len(); got != len(background) {
				t.Errorf("registry = %d flows, want %d background", got, len(background))
			}
			// Congestion-freedom held throughout (spot-check the end state).
			g := net.Graph()
			for i := 0; i < g.NumLinks(); i++ {
				if l := g.Link(topology.LinkID(i)); l.Residual() < 0 {
					t.Errorf("link %v over capacity", l)
				}
			}
			if col.TailECT() < col.AvgECT() {
				t.Error("tail ECT below average ECT")
			}
			if col.PlanTime <= 0 {
				t.Error("no plan time accounted")
			}
		})
	}
}

// TestEngineDeterministicUnderSeed: identical seeds must give identical
// metrics for the randomized schedulers.
func TestEngineDeterministicUnderSeed(t *testing.T) {
	run := func() *runSummary {
		ft, err := topology.NewFatTree(4, topology.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.WidestFit{})
		gen, err := trace.NewGenerator(33, trace.YahooLike{}, ft.Hosts())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.FillBackground(net, gen, 0.35, 0); err != nil {
			t.Fatal(err)
		}
		planner := core.NewPlanner(migration.NewPlanner(net, 0), 0)
		eng := NewEngine(planner, sched.NewLMTF(3, 17), Config{})
		col, err := eng.Run(gen.Events(6, 3, 8))
		if err != nil {
			t.Fatal(err)
		}
		return &runSummary{col.AvgECT(), col.TailECT(), col.Makespan}
	}
	a, b := run(), run()
	if *a != *b {
		t.Errorf("same-seed runs diverged: %+v vs %+v", a, b)
	}
}

type runSummary struct {
	avg, tail, makespan time.Duration
}

// TestReleaseHeapAllocFree pins the release heap's push and pop at zero
// allocations once the slice has grown, and its pop order to (at, ID).
func TestReleaseHeapAllocFree(t *testing.T) {
	flows := make([]*flow.Flow, 64)
	for i := range flows {
		flows[i] = &flow.Flow{ID: flow.ID(i)}
	}
	h := make(releaseHeap, 0, len(flows))
	fill := func() {
		for i, f := range flows {
			h.push(release{at: time.Duration((i * 37) % 11), f: f})
		}
	}
	fill()
	var prev release
	for i := 0; len(h) > 0; i++ {
		rel := h.pop()
		if i > 0 && (rel.at < prev.at || rel.at == prev.at && rel.f.ID < prev.f.ID) {
			t.Fatalf("pop %d: (%v, %d) after (%v, %d)", i, rel.at, rel.f.ID, prev.at, prev.f.ID)
		}
		prev = rel
	}
	if allocs := testing.AllocsPerRun(100, func() {
		fill()
		for len(h) > 0 {
			h.pop()
		}
	}); allocs != 0 {
		t.Errorf("push+pop allocate %v times per run, want 0", allocs)
	}
}
