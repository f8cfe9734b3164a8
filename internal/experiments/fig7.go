package experiments

import (
	"fmt"

	"netupdate/internal/metrics"
	"netupdate/internal/sched"
)

// Fig7 evaluates P-LMTF against FIFO for two event populations as network
// utilization sweeps 50–90%: heterogeneous events (10–100 flows) and
// synchronous events (50–60 flows), with 30 queued events and α=4. The
// paper reports 60–70% average-ECT and 40–60% tail-ECT reductions for
// heterogeneous events (40–50% / 30–50% for synchronous), largely
// independent of utilization.
//
// Very high fill targets may be unreachable with unsplittable flows; the
// runner then keeps the utilization actually achieved and reports it.
func Fig7(opts Options) (*Report, error) {
	utils := []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	k, nEvents := 8, 30
	kinds := []struct {
		name               string
		minFlows, maxFlows int
	}{
		{"heterogeneous", 10, 100},
		{"synchronous", 50, 60},
	}

	rep := &Report{
		Name:        "fig7",
		Description: "P-LMTF vs FIFO reductions across utilization and event types",
	}
	for ki, kind := range kinds {
		table := metrics.NewTable(
			fmt.Sprintf("Fig 7 (%s events): reductions vs FIFO", kind.name),
			"target util", "achieved util", "avg red.", "tail red.")
		var minAvg, maxAvg = 2.0, -2.0
		for ui, u := range utils {
			setup := opts.apply(Setup{K: k, Utilization: u, Seed: opts.Seed*1000 + 700 + int64(ki*10+ui)})
			probe, err := NewEnv(setup)
			if err != nil {
				return nil, err
			}
			achieved := probe.Net.Utilization()
			fifo, err := runScheduler(setup, func() sched.Scheduler { return sched.FIFO{} },
				nEvents, kind.minFlows, kind.maxFlows)
			if err != nil {
				return nil, err
			}
			plmtf, err := runScheduler(setup, func() sched.Scheduler { return sched.NewPLMTF(4, setup.Seed) },
				nEvents, kind.minFlows, kind.maxFlows)
			if err != nil {
				return nil, err
			}
			avgRed := metrics.Reduction(fifo.AvgECT(), plmtf.AvgECT())
			tailRed := metrics.Reduction(fifo.TailECT(), plmtf.TailECT())
			table.AddRow(fmt.Sprintf("%.2f", u), achieved, avgRed, tailRed)
			if avgRed < minAvg {
				minAvg = avgRed
			}
			if avgRed > maxAvg {
				maxAvg = avgRed
			}
		}
		rep.Tables = append(rep.Tables, table)
		rep.headline(fmt.Sprintf("%s min avg red.", kind.name), minAvg)
		rep.headline(fmt.Sprintf("%s max avg red.", kind.name), maxAvg)
	}
	rep.Notes = append(rep.Notes,
		"background is static during this experiment, as in the paper (Section V-D)")
	return rep, nil
}
