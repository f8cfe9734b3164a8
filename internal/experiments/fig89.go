package experiments

import (
	"fmt"
	"time"

	"netupdate/internal/metrics"
	"netupdate/internal/sched"
)

// Fig8 measures the reduction in average and worst-case event queuing
// delay of LMTF and P-LMTF against FIFO as the number of queued events
// grows (α=4, 50–70% utilization, 10–100 flows per event). The paper
// reports LMTF reducing the average delay by 20–40% (worst case 10–30%)
// and P-LMTF by 67–83% (worst case 60–74%), roughly independent of queue
// length.
func Fig8(opts Options) (*Report, error) {
	counts := []int{10, 20, 30, 40, 50}
	k, util := 8, 0.6
	minFlows, maxFlows := 10, 100
	table := metrics.NewTable("Fig 8: queuing-delay reductions vs FIFO",
		"events", "lmtf avg red.", "lmtf worst red.", "p-lmtf avg red.", "p-lmtf worst red.")
	rep := &Report{
		Name:        "fig8",
		Description: "event queuing delay reductions vs queue length",
	}
	var sumAvgL, sumAvgP float64
	for i, n := range counts {
		setup := opts.apply(Setup{K: k, Utilization: util, Seed: opts.Seed*1000 + 800 + int64(i)})
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
		lAvg := metrics.Reduction(fifo.AvgQueuingDelay(), lmtf.AvgQueuingDelay())
		lWorst := metrics.Reduction(fifo.WorstQueuingDelay(), lmtf.WorstQueuingDelay())
		pAvg := metrics.Reduction(fifo.AvgQueuingDelay(), plmtf.AvgQueuingDelay())
		pWorst := metrics.Reduction(fifo.WorstQueuingDelay(), plmtf.WorstQueuingDelay())
		table.AddRow(n, lAvg, lWorst, pAvg, pWorst)
		sumAvgL += lAvg
		sumAvgP += pAvg
	}
	rep.Tables = []*metrics.Table{table}
	rep.headline("lmtf mean avg-delay reduction (paper 0.2-0.4)", sumAvgL/float64(len(counts)))
	rep.headline("p-lmtf mean avg-delay reduction (paper 0.67-0.83)", sumAvgP/float64(len(counts)))
	return rep, nil
}

// Fig9 plots the queuing delay of each of 30 events (arrival order) under
// FIFO, LMTF and P-LMTF at 50–70% utilization — the per-event view behind
// Fig. 8's aggregates. P-LMTF keeps every event's delay low; LMTF delays a
// few heavy events (the fine-tuning cost the paper discusses).
func Fig9(opts Options) (*Report, error) {
	k, util, nEvents := 8, 0.6, 30
	minFlows, maxFlows := 10, 100
	setup := opts.apply(Setup{K: k, Utilization: util, Seed: opts.Seed*1000 + 900})

	type outcome struct {
		name   string
		delays []time.Duration
	}
	var outcomes []outcome
	for _, mk := range []func() sched.Scheduler{
		func() sched.Scheduler { return sched.FIFO{} },
		func() sched.Scheduler { return sched.NewLMTF(4, setup.Seed) },
		func() sched.Scheduler { return sched.NewPLMTF(4, setup.Seed) },
	} {
		s := mk()
		col, err := runScheduler(setup, mk, nEvents, minFlows, maxFlows)
		if err != nil {
			return nil, err
		}
		outcomes = append(outcomes, outcome{name: s.Name(), delays: col.QueuingDelays()})
	}

	table := metrics.NewTable("Fig 9: per-event queuing delay (seconds), events in arrival order",
		"event", outcomes[0].name, outcomes[1].name, outcomes[2].name)
	var betterL, betterP int
	for i := 0; i < nEvents; i++ {
		table.AddRow(fmt.Sprintf("U%d", i+1),
			seconds(outcomes[0].delays[i]), seconds(outcomes[1].delays[i]), seconds(outcomes[2].delays[i]))
		if outcomes[1].delays[i] <= outcomes[0].delays[i] {
			betterL++
		}
		if outcomes[2].delays[i] <= outcomes[0].delays[i] {
			betterP++
		}
	}
	rep := &Report{
		Name:        "fig9",
		Description: "per-event queuing delays, 30 events",
		Tables:      []*metrics.Table{table},
	}
	rep.headline("fraction events lmtf <= fifo", float64(betterL)/float64(nEvents))
	rep.headline("fraction events p-lmtf <= fifo", float64(betterP)/float64(nEvents))
	return rep, nil
}
