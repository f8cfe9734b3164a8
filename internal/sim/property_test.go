package sim_test

import (
	"fmt"
	"testing"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/fault"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

// TestSchedulerInvariantsUnderFaults is the property-based satellite:
// across random seeds, all four schedulers, and faults on/off, a run must
// uphold the paper's congestion-free contract — no link ever exceeds
// capacity, the bandwidth ledger matches the placed flows exactly, no
// placed flow crosses a down link — and every admitted event completes.
func TestSchedulerInvariantsUnderFaults(t *testing.T) {
	schedulers := map[string]func(seed int64) sched.Scheduler{
		"fifo":    func(int64) sched.Scheduler { return sched.FIFO{} },
		"reorder": func(int64) sched.Scheduler { return sched.Reorder{} },
		"lmtf":    func(seed int64) sched.Scheduler { return sched.NewLMTF(4, seed) },
		"p-lmtf":  func(seed int64) sched.Scheduler { return sched.NewPLMTF(4, seed) },
	}
	for name, mk := range schedulers {
		for seed := int64(1); seed <= 3; seed++ {
			for _, faults := range []bool{false, true} {
				label := fmt.Sprintf("%s/seed=%d/faults=%v", name, seed, faults)
				t.Run(label, func(t *testing.T) {
					checkRunInvariants(t, mk(seed), seed, faults)
				})
			}
		}
	}
}

func checkRunInvariants(t *testing.T, s sched.Scheduler, seed int64, faults bool) {
	t.Helper()
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(seed))
	gen, err := trace.NewGenerator(seed, trace.YahooLike{}, ft.Hosts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.FillBackground(net, gen, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	planner := core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)
	eng := sim.NewEngine(planner, s, sim.Config{})

	events := gen.Events(10, 2, 8)
	if faults {
		script := fault.RandomScript(seed, ft.Graph(), 4, 2*time.Second, 300*time.Millisecond)
		// Exercise the timeout machinery too: one survivable, one not.
		script = append(script,
			fault.Injection{At: 10 * time.Millisecond, Action: fault.InstallTimeout, Times: 1},
			fault.Injection{At: 20 * time.Millisecond, Action: fault.InstallTimeout, Times: 100},
		)
		eng.SetFaults(script)
	}

	col, err := eng.Run(events)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	// Every submitted event completed (repair events show up as extra
	// collector records, so >= is the right comparison).
	for _, ev := range events {
		if !ev.Done {
			t.Errorf("%v never completed", ev)
		}
	}
	if col.Len() < len(events) {
		t.Errorf("collector has %d records, want >= %d", col.Len(), len(events))
	}

	// Congestion freedom and ledger consistency at end of run.
	g := net.Graph()
	perLink := make(map[topology.LinkID]topology.Bandwidth)
	for _, f := range net.Registry().Placed() {
		for _, l := range f.Path().Links() {
			perLink[l] += f.Demand
			if g.Link(l).Down() {
				t.Errorf("flow %v placed across down link %v", f, g.Link(l))
			}
		}
	}
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(topology.LinkID(i))
		if l.Reserved() > l.Capacity {
			t.Errorf("%v over capacity", l)
		}
		if l.Reserved() != perLink[l.ID] {
			t.Errorf("%v ledger %v != placed sum %v", l, l.Reserved(), perLink[l.ID])
		}
	}
}

// TestCollectorTotalsMatchRecords is the differential check on the
// collector's running totals: one seeded event stream under each
// scheduler, and the headline metrics the engine's collector answers in
// O(1) must equal the values recomputed from its record list.
func TestCollectorTotalsMatchRecords(t *testing.T) {
	schedulers := map[string]sched.Scheduler{
		"fifo":    sched.FIFO{},
		"reorder": sched.Reorder{},
		"lmtf":    sched.NewLMTF(4, 9),
		"p-lmtf":  sched.NewPLMTF(4, 9),
	}
	for name, s := range schedulers {
		t.Run(name, func(t *testing.T) {
			ft, err := topology.NewFatTree(4, topology.Gbps)
			if err != nil {
				t.Fatal(err)
			}
			net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(9))
			gen, err := trace.NewGenerator(9, trace.YahooLike{}, ft.Hosts())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := trace.FillBackground(net, gen, 0.6, 0); err != nil {
				t.Fatal(err)
			}
			planner := core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)
			col, err := sim.NewEngine(planner, s, sim.Config{}).Run(gen.Events(40, 2, 10))
			if err != nil {
				t.Fatalf("run: %v", err)
			}

			records := col.Records()
			if len(records) != 40 || col.Len() != 40 {
				t.Fatalf("%d records, Len %d, want 40 each", len(records), col.Len())
			}
			var ectSum, tail time.Duration
			var cost topology.Bandwidth
			evals := col.DecisionEvals
			for _, r := range records {
				ectSum += r.ECT()
				tail = max(tail, r.ECT())
				cost += r.Cost
				evals += r.PlanEvals
			}
			if got, want := col.AvgECT(), ectSum/time.Duration(len(records)); got != want {
				t.Errorf("AvgECT = %v, records give %v", got, want)
			}
			if got := col.TailECT(); got != tail {
				t.Errorf("TailECT = %v, records give %v", got, tail)
			}
			if got := col.TotalCost(); got != cost {
				t.Errorf("TotalCost = %v, records give %v", got, cost)
			}
			if got := col.TotalPlanEvals(); got != evals {
				t.Errorf("TotalPlanEvals = %d, records give %d", got, evals)
			}
			if cost == 0 {
				t.Error("the stream never migrated anything; the cost check checked nothing")
			}
		})
	}
}
