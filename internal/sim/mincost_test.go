package sim_test

import (
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

// minCostEngine builds a loaded fat-tree driven by the min-cost
// scheduler with live metrics attached, plus a workload batch.
func minCostEngine(t *testing.T) (*sim.Engine, *obs.SimMetrics, []*core.Event) {
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
	if _, err := trace.FillBackground(net, gen, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	planner := core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)
	eng := sim.NewEngine(planner, sched.NewMinCost(), sim.Config{InstallTime: time.Millisecond})
	reg := obs.NewRegistry()
	met := obs.NewSimMetrics(reg)
	eng.SetTracer(obs.NewTracer(nil, met))
	return eng, met, gen.Events(16, 2, 4)
}

// TestMinCostSteadyStateZeroTrialPlans is the incremental-core
// acceptance criterion: once the queue has been priced, planning
// another round over the unchanged queue performs ZERO full trial-plans
// — no cold plans, no incremental re-plans, not a single probe miss —
// as reported by the run's observability counters.
func TestMinCostSteadyStateZeroTrialPlans(t *testing.T) {
	eng, met, events := minCostEngine(t)
	eng.EnqueueBatch(events)

	// Cold start: the first plan prices the whole queue.
	if _, err := eng.Plan(); err != nil {
		t.Fatalf("cold Plan: %v", err)
	}
	coldMisses := eng.Collector().ProbeCacheMisses
	if coldMisses == 0 {
		t.Fatal("cold plan performed no trial-plans; workload broken")
	}
	if met.ProbeCold.Value() != int64(eng.Collector().ProbeCold) {
		t.Errorf("obs cold gauge %d != collector %d", met.ProbeCold.Value(), eng.Collector().ProbeCold)
	}

	// Steady state: nothing changed, so re-planning the same queue must
	// touch no planner at all.
	for i := 0; i < 3; i++ {
		if _, err := eng.Plan(); err != nil {
			t.Fatalf("steady Plan %d: %v", i, err)
		}
		if got := eng.Collector().ProbeCacheMisses; got != coldMisses {
			t.Fatalf("steady-state plan %d performed %d trial-plans", i, got-coldMisses)
		}
	}
	if met.ProbeCold.Value()+met.ProbeIncremental.Value() != int64(coldMisses) {
		t.Errorf("obs miss split %d cold + %d incremental != %d total misses",
			met.ProbeCold.Value(), met.ProbeIncremental.Value(), coldMisses)
	}

	// Execute one round: the network changes, so the next plan may
	// re-plan dirtied entries — but only dirtied ones, and the dirty-set
	// histogram must have seen the change batch.
	if _, err := eng.Step(); err != nil {
		t.Fatalf("Step: %v", err)
	}
	missesAfterRound := eng.Collector().ProbeCacheMisses
	if _, err := eng.Plan(); err != nil {
		t.Fatalf("post-round Plan: %v", err)
	}
	if eng.Collector().ProbeCold != int(met.ProbeCold.Value()) {
		t.Errorf("collector cold %d != obs gauge %d", eng.Collector().ProbeCold, met.ProbeCold.Value())
	}
	if replans := eng.Collector().ProbeCacheMisses - missesAfterRound; replans > 0 {
		if eng.Collector().ProbeIncremental == 0 {
			t.Errorf("%d post-round replans but zero counted as incremental", replans)
		}
		if met.ProbeDirtyLinks.Count() == 0 {
			t.Error("dirty-set histogram empty despite incremental replans")
		}
	}
}

// TestMinCostMatchesReorderDecisions checks min-cost picks the same
// head Reorder (the full-scan baseline) would: cheapest cost, ties by
// ID. The index is a faster route to the same decision, not a new
// policy.
func TestMinCostMatchesReorderDecisions(t *testing.T) {
	build := func(s sched.Scheduler) (*sim.Engine, []*core.Event) {
		ft, err := topology.NewFatTree(4, topology.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(7))
		gen, err := trace.NewGenerator(1, trace.YahooLike{}, ft.Hosts())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.FillBackground(net, gen, 0.5, 0); err != nil {
			t.Fatal(err)
		}
		planner := core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)
		return sim.NewEngine(planner, s, sim.Config{InstallTime: time.Millisecond}), gen.Events(12, 2, 4)
	}

	mc, evs1 := build(sched.NewMinCost())
	ro, evs2 := build(sched.Reorder{})
	mc.EnqueueBatch(evs1)
	ro.EnqueueBatch(evs2)
	for round := 0; ; round++ {
		a, errA := mc.Plan()
		b, errB := ro.Plan()
		if (errA != nil) != (errB != nil) {
			t.Fatalf("round %d: min-cost err=%v, reorder err=%v", round, errA, errB)
		}
		if errA != nil {
			break
		}
		if a.Head.ID != b.Head.ID {
			t.Fatalf("round %d: min-cost picked ev%d, reorder picked ev%d", round, a.Head.ID, b.Head.ID)
		}
		da, errA := mc.Step()
		db, errB := ro.Step()
		if errA != nil || errB != nil {
			t.Fatalf("round %d: step: %v / %v", round, errA, errB)
		}
		if !da && !db {
			break
		}
	}
	ca, cb := mc.Collector(), ro.Collector()
	if ca.Len() != cb.Len() || ca.Len() == 0 {
		t.Fatalf("events done: min-cost %d, reorder %d", ca.Len(), cb.Len())
	}
	if ca.TotalCost() != cb.TotalCost() {
		t.Errorf("total cost: min-cost %v, reorder %v", ca.TotalCost(), cb.TotalCost())
	}
}
