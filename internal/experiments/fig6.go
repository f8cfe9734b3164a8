package experiments

import (
	"netupdate/internal/metrics"
	"netupdate/internal/sched"
	"netupdate/internal/topology"
)

// Fig6 evaluates LMTF and P-LMTF against FIFO (α=4) as the number of
// queued events grows from 10 to 50 at 50–70% utilization with 10–100
// flows per event. Four panels: (a) total update cost reduction, (b) avg
// ECT reduction, (c) tail ECT reduction, (d) total plan time. The paper
// reports P-LMTF reducing cost by 34–45%, avg ECT by 69–80% (LMTF 22–36%),
// tail ECT by 35–48% (LMTF 5–26%), with plan time FIFO < P-LMTF (~2x) <
// LMTF (~4.5x).
func Fig6(opts Options) (*Report, error) {
	counts := []int{10, 20, 30, 40, 50}
	k, util := 8, 0.6
	minFlows, maxFlows := 10, 100

	costTable := metrics.NewTable("Fig 6(a): total update cost (Mbps migrated) and reduction vs FIFO",
		"events", "fifo", "lmtf", "p-lmtf", "lmtf red.", "p-lmtf red.")
	avgTable := metrics.NewTable("Fig 6(b): average ECT (seconds) and reduction vs FIFO",
		"events", "fifo", "lmtf", "p-lmtf", "lmtf red.", "p-lmtf red.")
	tailTable := metrics.NewTable("Fig 6(c): tail ECT (seconds) and reduction vs FIFO",
		"events", "fifo", "lmtf", "p-lmtf", "lmtf red.", "p-lmtf red.")
	planTable := metrics.NewTable("Fig 6(d): total plan time (seconds) and ratio vs FIFO",
		"events", "fifo", "lmtf", "p-lmtf", "lmtf ratio", "p-lmtf ratio")
	probeTable := metrics.NewTable("Fig 6(e): real probe wall-time (ms)",
		"events", "lmtf ms", "p-lmtf ms")

	rep := &Report{
		Name:        "fig6",
		Description: "LMTF and P-LMTF vs FIFO across queue lengths",
	}
	var (
		minAvgRedP, maxAvgRedP   = 2.0, -2.0
		minTailRedP, maxTailRedP = 2.0, -2.0
		planRatioL, planRatioP   float64
	)
	for i, n := range counts {
		setup := opts.apply(Setup{K: k, Utilization: util, Seed: opts.Seed*1000 + 600 + int64(i)})
		fifo, err := runScheduler(setup, func() sched.Scheduler { return sched.FIFO{} }, n, minFlows, maxFlows)
		if err != nil {
			return nil, err
		}
		lmtf, err := runScheduler(setup, func() sched.Scheduler { return sched.NewLMTF(4, setup.Seed) }, n, minFlows, maxFlows)
		if err != nil {
			return nil, err
		}
		plmtf, err := runScheduler(setup, func() sched.Scheduler { return sched.NewPLMTF(4, setup.Seed) }, n, minFlows, maxFlows)
		if err != nil {
			return nil, err
		}

		costTable.AddRow(n,
			bwMbps(fifo.TotalCost()), bwMbps(lmtf.TotalCost()), bwMbps(plmtf.TotalCost()),
			metrics.ReductionB(fifo.TotalCost(), lmtf.TotalCost()),
			metrics.ReductionB(fifo.TotalCost(), plmtf.TotalCost()))
		avgTable.AddRow(n,
			seconds(fifo.AvgECT()), seconds(lmtf.AvgECT()), seconds(plmtf.AvgECT()),
			metrics.Reduction(fifo.AvgECT(), lmtf.AvgECT()),
			metrics.Reduction(fifo.AvgECT(), plmtf.AvgECT()))
		tailTable.AddRow(n,
			seconds(fifo.TailECT()), seconds(lmtf.TailECT()), seconds(plmtf.TailECT()),
			metrics.Reduction(fifo.TailECT(), lmtf.TailECT()),
			metrics.Reduction(fifo.TailECT(), plmtf.TailECT()))
		planTable.AddRow(n,
			seconds(fifo.PlanTime), seconds(lmtf.PlanTime), seconds(plmtf.PlanTime),
			ratio(lmtf.PlanTime, fifo.PlanTime), ratio(plmtf.PlanTime, fifo.PlanTime))
		probeTable.AddRow(n,
			lmtf.ProbeWallTime.Seconds()*1e3, plmtf.ProbeWallTime.Seconds()*1e3)

		redAvg := metrics.Reduction(fifo.AvgECT(), plmtf.AvgECT())
		if redAvg < minAvgRedP {
			minAvgRedP = redAvg
		}
		if redAvg > maxAvgRedP {
			maxAvgRedP = redAvg
		}
		redTail := metrics.Reduction(fifo.TailECT(), plmtf.TailECT())
		if redTail < minTailRedP {
			minTailRedP = redTail
		}
		if redTail > maxTailRedP {
			maxTailRedP = redTail
		}
		planRatioL += ratio(lmtf.PlanTime, fifo.PlanTime)
		planRatioP += ratio(plmtf.PlanTime, fifo.PlanTime)
	}
	rep.Tables = []*metrics.Table{costTable, avgTable, tailTable, planTable, probeTable}
	rep.headline("p-lmtf min avg-ECT reduction (paper 0.69)", minAvgRedP)
	rep.headline("p-lmtf max avg-ECT reduction (paper 0.80)", maxAvgRedP)
	rep.headline("p-lmtf min tail-ECT reduction (paper 0.35)", minTailRedP)
	rep.headline("p-lmtf max tail-ECT reduction (paper 0.48)", maxTailRedP)
	rep.headline("lmtf mean plan-time ratio (paper ~4.5)", planRatioL/float64(len(counts)))
	rep.headline("p-lmtf mean plan-time ratio (paper ~2)", planRatioP/float64(len(counts)))
	return rep, nil
}

// ratio returns a/b (0 when b is 0).
func ratio(a, b interface{ Seconds() float64 }) float64 {
	if b.Seconds() == 0 {
		return 0
	}
	return a.Seconds() / b.Seconds()
}

// bwMbps renders a bandwidth as a megabit-per-second count for table cells.
func bwMbps(b topology.Bandwidth) float64 { return float64(b) / 1e6 }
