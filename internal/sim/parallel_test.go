package sim

import (
	"reflect"
	"testing"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/flow"
	"netupdate/internal/metrics"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/sched"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

// pinnedRun simulates a fixed workload in the paper's regime — 36 events
// of 3-15 flows on a k=4 fat-tree filled to 60 % — under the given
// scheduler.
func pinnedRun(t *testing.T, s sched.Scheduler) (*Engine, *metrics.Collector) {
	t.Helper()
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(41))
	gen, err := trace.NewGenerator(17, trace.YahooLike{}, ft.Hosts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.FillBackground(net, gen, 0.6, 0); err != nil {
		t.Fatal(err)
	}
	planner := core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)
	eng := NewEngine(planner, s, Config{})
	col, err := eng.Run(gen.Events(36, 3, 15))
	if err != nil {
		t.Fatal(err)
	}
	return eng, col
}

// TestProbeCacheIsScheduleInvariant pins that deleting the probe cache
// changed no decision. The constants were captured at 6fd2474, the last
// commit whose LMTF / P-LMTF probed through the epoch cache (which
// answered 25 of 170 and 10 of 79 probes of these runs); every probe is
// now a trial plan, and cost, ECTs, rounds, decision work and the order
// events executed in must not have moved.
func TestProbeCacheIsScheduleInvariant(t *testing.T) {
	for _, tc := range []struct {
		name      string
		sched     sched.Scheduler
		cost      topology.Bandwidth
		avg, tail time.Duration
		rounds    int64
		evals     int
		order     []flow.EventID
	}{
		{"lmtf", sched.NewLMTF(4, 7), 132 * topology.Mbps, 1417222222, 3990 * time.Millisecond, 36, 74160,
			[]flow.EventID{2, 13, 23, 9, 7, 5, 4, 6, 26, 15, 3, 8, 29, 34, 31, 16, 18, 14,
				21, 19, 22, 25, 30, 24, 32, 36, 28, 10, 33, 35, 20, 27, 17, 11, 1, 12}},
		{"plmtf", sched.NewPLMTF(4, 7), 285 * topology.Mbps, 1575277777, 2760 * time.Millisecond, 9, 24386,
			[]flow.EventID{2, 25, 32, 7, 1, 9, 11, 26, 3, 19, 30, 31, 4, 6, 8, 10, 18, 5,
				21, 22, 36, 14, 12, 28, 13, 16, 20, 23, 15, 17, 33, 35, 24, 27, 29, 34}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, col := pinnedRun(t, tc.sched)
			if col.TotalCost() != tc.cost || col.AvgECT() != tc.avg || col.TailECT() != tc.tail {
				t.Errorf("cost %v, avg ECT %v, tail ECT %v; want %v, %v, %v",
					col.TotalCost(), col.AvgECT(), col.TailECT(), tc.cost, tc.avg, tc.tail)
			}
			if eng.Rounds() != tc.rounds || col.DecisionEvals != tc.evals {
				t.Errorf("%d rounds, %d decision evals; want %d, %d",
					eng.Rounds(), col.DecisionEvals, tc.rounds, tc.evals)
			}
			var order []flow.EventID
			for _, r := range col.Records() {
				order = append(order, r.Event)
			}
			if !reflect.DeepEqual(order, tc.order) {
				t.Errorf("execution order %v, want %v", order, tc.order)
			}
		})
	}
}
