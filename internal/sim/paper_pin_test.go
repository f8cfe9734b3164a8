package sim

import (
	"reflect"
	"testing"
	"time"

	"netupdate/internal/flow"
	"netupdate/internal/sched"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

// TestPaperPlanDecisionsPinned pins every decision of one paper-scale
// run — the k = 8 fabric at 60 % of Genesis{K: 8, Seed: 1}, 150
// YahooLike events of 10-100 flows from generator seed 1001, P-LMTF
// α = 4 — to constants captured before the planner's link index, path
// table and link lookups became ID-indexed arrays. Those are
// representation changes only: cost, ECTs, rounds, decision work, probe
// count, simulated plan time and execution order must not move.
func TestPaperPlanDecisionsPinned(t *testing.T) {
	w, err := Genesis{K: 8, Seed: 1}.Build(0.6)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(1001, trace.YahooLike{}, w.FatTree.Hosts())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(w.Planner, sched.NewPLMTF(4, 1), Config{})
	col, err := eng.Run(gen.Events(150, 10, 100))
	if err != nil {
		t.Fatal(err)
	}

	const (
		cost     = 3032 * topology.Mbps
		avg      = 25180533333 * time.Nanosecond
		tail     = 50060 * time.Millisecond
		rounds   = 44
		evals    = 1595142
		probes   = 384
		planTime = 2106384 * time.Microsecond
	)
	order := []flow.EventID{74, 1, 71, 113, 128, 2, 43, 47, 103, 3, 27, 51, 92, 121, 63, 4,
		32, 5, 50, 129, 124, 6, 120, 20, 7, 49, 88, 143, 69, 8, 81, 146, 59, 9, 90, 10, 18,
		19, 38, 62, 11, 25, 36, 144, 17, 12, 66, 107, 13, 34, 96, 60, 14, 148, 15, 24, 48,
		16, 33, 54, 109, 21, 23, 75, 80, 127, 22, 26, 28, 31, 41, 44, 29, 115, 65, 58, 130,
		135, 30, 95, 111, 122, 35, 42, 68, 56, 37, 97, 119, 39, 114, 138, 40, 53, 85, 112,
		94, 45, 118, 46, 61, 78, 117, 52, 79, 99, 55, 105, 140, 57, 134, 150, 64, 76, 77,
		91, 108, 67, 100, 106, 133, 98, 70, 101, 72, 84, 132, 73, 89, 104, 82, 110, 83,
		131, 139, 116, 86, 142, 145, 87, 102, 93, 141, 123, 125, 137, 149, 126, 147, 136}

	if col.TotalCost() != cost || col.AvgECT() != avg || col.TailECT() != tail {
		t.Errorf("cost %v, avg ECT %v, tail ECT %v; want %v, %v, %v",
			col.TotalCost(), col.AvgECT(), col.TailECT(), cost, avg, tail)
	}
	if eng.Rounds() != rounds || col.DecisionEvals != evals || col.Probes != probes || col.PlanTime != planTime {
		t.Errorf("%d rounds, %d decision evals, %d probes, plan time %v; want %d, %d, %d, %v",
			eng.Rounds(), col.DecisionEvals, col.Probes, col.PlanTime, rounds, evals, probes, planTime)
	}
	var got []flow.EventID
	for _, r := range col.Records() {
		got = append(got, r.Event)
	}
	if !reflect.DeepEqual(got, order) {
		t.Errorf("execution order %v, want %v", got, order)
	}
}
