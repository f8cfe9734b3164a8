package experiments

import (
	"fmt"

	"netupdate/internal/metrics"
	"netupdate/internal/migration"
	"netupdate/internal/sched"
)

// AblationAlpha sweeps the sampling parameter α for LMTF and P-LMTF. The
// paper fixes α=4 but argues (via the power of two random choices) that
// α=2 already captures most of the benefit; this ablation verifies it.
func AblationAlpha(opts Options) (*Report, error) {
	alphas := []int{1, 2, 4, 8}
	k, util, nEvents := 8, 0.6, 30
	minFlows, maxFlows := 10, 100
	setup := opts.apply(Setup{K: k, Utilization: util, Seed: opts.Seed*1000 + 1100})

	fifo, err := runScheduler(setup, func() sched.Scheduler { return sched.FIFO{} }, nEvents, minFlows, maxFlows)
	if err != nil {
		return nil, err
	}
	table := metrics.NewTable("Ablation: alpha sensitivity (reductions vs FIFO)",
		"alpha", "lmtf avg red.", "lmtf plan evals", "p-lmtf avg red.", "p-lmtf plan evals")
	rep := &Report{
		Name:        "ablation-alpha",
		Description: "sensitivity of LMTF/P-LMTF to the sample size alpha",
	}
	for _, a := range alphas {
		alpha := a
		lmtf, err := runScheduler(setup, func() sched.Scheduler { return sched.NewLMTF(alpha, setup.Seed) },
			nEvents, minFlows, maxFlows)
		if err != nil {
			return nil, err
		}
		plmtf, err := runScheduler(setup, func() sched.Scheduler { return sched.NewPLMTF(alpha, setup.Seed) },
			nEvents, minFlows, maxFlows)
		if err != nil {
			return nil, err
		}
		lRed := metrics.Reduction(fifo.AvgECT(), lmtf.AvgECT())
		pRed := metrics.Reduction(fifo.AvgECT(), plmtf.AvgECT())
		table.AddRow(alpha, lRed, lmtf.TotalPlanEvals(), pRed, plmtf.TotalPlanEvals())
		rep.headline(fmt.Sprintf("lmtf avg red. alpha=%d", alpha), lRed)
	}
	rep.Tables = []*metrics.Table{table}
	return rep, nil
}

// AblationGreedy compares the three migration greedy strategies (density,
// smallest-first, largest-first) on total update cost and average ECT
// under LMTF — the design choice behind the cost-optimization method of
// Section IV-A.
func AblationGreedy(opts Options) (*Report, error) {
	k, util, nEvents := 8, 0.6, 20
	minFlows, maxFlows := 10, 100
	strategies := []migration.Strategy{
		migration.StrategyDensity,
		migration.StrategySmallest,
		migration.StrategyLargest,
	}
	table := metrics.NewTable("Ablation: migration greedy strategies under LMTF",
		"strategy", "total cost (Mbps)", "avg ECT (s)", "tail ECT (s)", "failed flows")
	rep := &Report{
		Name:        "ablation-greedy",
		Description: "migration set selection heuristics",
	}
	for _, strat := range strategies {
		setup := opts.apply(Setup{
			K: k, Utilization: util, Strategy: strat,
			Seed: opts.Seed*1000 + 1200,
		})
		col, err := runScheduler(setup, func() sched.Scheduler { return sched.NewLMTF(4, setup.Seed) },
			nEvents, minFlows, maxFlows)
		if err != nil {
			return nil, err
		}
		table.AddRow(strat.String(), bwMbps(col.TotalCost()),
			seconds(col.AvgECT()), seconds(col.TailECT()), col.TotalFailed())
		rep.headline("total cost "+strat.String(), bwMbps(col.TotalCost()))
	}
	rep.Tables = []*metrics.Table{table}
	return rep, nil
}

// AblationReorder quantifies what LMTF's sampling gives up against the
// "intrinsic" full-queue reorder of Section III-C — and what it saves in
// planning work, the paper's argument for sampling.
func AblationReorder(opts Options) (*Report, error) {
	k, util, nEvents := 8, 0.6, 30
	minFlows, maxFlows := 10, 100
	setup := opts.apply(Setup{K: k, Utilization: util, Seed: opts.Seed*1000 + 1300})

	table := metrics.NewTable("Ablation: LMTF sampling vs full reorder",
		"scheduler", "avg ECT (s)", "tail ECT (s)", "decision evals", "plan time (s)")
	rep := &Report{
		Name:        "ablation-reorder",
		Description: "sampling (LMTF) vs full-queue cost reorder",
	}
	for _, mk := range []func() sched.Scheduler{
		func() sched.Scheduler { return sched.FIFO{} },
		func() sched.Scheduler { return sched.SmallestFirst{} },
		func() sched.Scheduler { return sched.NewLMTF(4, setup.Seed) },
		func() sched.Scheduler { return sched.Reorder{} },
	} {
		s := mk()
		col, err := runScheduler(setup, mk, nEvents, minFlows, maxFlows)
		if err != nil {
			return nil, err
		}
		table.AddRow(s.Name(), seconds(col.AvgECT()), seconds(col.TailECT()),
			col.DecisionEvals, seconds(col.PlanTime))
		rep.headline("decision evals "+s.Name(), float64(col.DecisionEvals))
	}
	rep.Tables = []*metrics.Table{table}
	return rep, nil
}
