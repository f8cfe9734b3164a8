package experiments

import (
	"time"

	"netupdate/internal/metrics"
	"netupdate/internal/sched"
)

// Fig4 compares event-level scheduling with the flow-level baseline for
// 10 update events as the mean number of flows per event grows from 15 to
// 75, at ~70% network utilization. The event-level arm uses P-LMTF (α=4),
// the paper's best event-level method — "our approach" in its headline
// claims. The paper reports the event-level average and tail ECTs up to
// 10x and 6x faster; the flow-level curves inflect once events exceed ~35
// flows.
func Fig4(opts Options) (*Report, error) {
	means := []int{15, 25, 35, 45, 55, 65, 75}
	k, nEvents, util := 8, 10, 0.7

	table := metrics.NewTable("Fig 4: avg/tail ECT vs mean flows per event (seconds; norm = /max flow-level)",
		"mean flows", "event avg", "flow avg", "event tail", "flow tail",
		"event avg norm", "flow avg norm", "event tail norm", "flow tail norm")

	type row struct {
		mean                         int
		evAvg, flAvg, evTail, flTail time.Duration
		avgSpeedup, tailSpeedup      float64
	}
	rows := make([]row, 0, len(means))
	var maxFlAvg, maxFlTail time.Duration

	for i, mean := range means {
		setup := opts.apply(Setup{K: k, Utilization: util, Seed: opts.Seed*1000 + int64(i)})
		minFlows, maxFlows := mean-5, mean+5
		if minFlows < 1 {
			minFlows = 1
		}
		evCol, err := runScheduler(setup, func() sched.Scheduler { return sched.NewPLMTF(4, setup.Seed) },
			nEvents, minFlows, maxFlows)
		if err != nil {
			return nil, err
		}
		flCol, err := runFlowLevel(setup, nEvents, minFlows, maxFlows)
		if err != nil {
			return nil, err
		}
		r := row{
			mean:  mean,
			evAvg: evCol.AvgECT(), flAvg: flCol.AvgECT(),
			evTail: evCol.TailECT(), flTail: flCol.TailECT(),
			avgSpeedup:  metrics.Speedup(flCol.AvgECT(), evCol.AvgECT()),
			tailSpeedup: metrics.Speedup(flCol.TailECT(), evCol.TailECT()),
		}
		rows = append(rows, r)
		if r.flAvg > maxFlAvg {
			maxFlAvg = r.flAvg
		}
		if r.flTail > maxFlTail {
			maxFlTail = r.flTail
		}
	}

	rep := &Report{
		Name:        "fig4",
		Description: "event-level vs flow-level ECTs, 10 events, growing event size",
	}
	var bestAvg, bestTail float64
	for _, r := range rows {
		table.AddRow(r.mean,
			seconds(r.evAvg), seconds(r.flAvg), seconds(r.evTail), seconds(r.flTail),
			norm(r.evAvg, maxFlAvg), norm(r.flAvg, maxFlAvg),
			norm(r.evTail, maxFlTail), norm(r.flTail, maxFlTail))
		if r.avgSpeedup > bestAvg {
			bestAvg = r.avgSpeedup
		}
		if r.tailSpeedup > bestTail {
			bestTail = r.tailSpeedup
		}
	}
	rep.Tables = []*metrics.Table{table}
	rep.headline("max avg-ECT speedup (paper: up to 10x)", bestAvg)
	rep.headline("max tail-ECT speedup (paper: up to 6x)", bestTail)
	return rep, nil
}

// Fig5 repeats the comparison as the number of queued events grows from 10
// to 50 with 10–100 flows per event at 70% utilization, again with P-LMTF
// as the event-level method. The paper reports ~5x average and ~2x tail
// advantage for event-level scheduling, with the flow-level curves jumping
// near 30 events.
func Fig5(opts Options) (*Report, error) {
	counts := []int{10, 20, 30, 40, 50}
	k, util := 8, 0.7
	minFlows, maxFlows := 10, 100

	table := metrics.NewTable("Fig 5: avg/tail ECT vs number of events (seconds)",
		"events", "event avg", "flow avg", "event tail", "flow tail",
		"avg speedup", "tail speedup")
	rep := &Report{
		Name:        "fig5",
		Description: "event-level vs flow-level ECTs vs queue length",
	}
	var sumAvgSp, sumTailSp float64
	for i, n := range counts {
		setup := opts.apply(Setup{K: k, Utilization: util, Seed: opts.Seed*1000 + 500 + int64(i)})
		evCol, err := runScheduler(setup, func() sched.Scheduler { return sched.NewPLMTF(4, setup.Seed) },
			n, minFlows, maxFlows)
		if err != nil {
			return nil, err
		}
		flCol, err := runFlowLevel(setup, n, minFlows, maxFlows)
		if err != nil {
			return nil, err
		}
		avgSp := metrics.Speedup(flCol.AvgECT(), evCol.AvgECT())
		tailSp := metrics.Speedup(flCol.TailECT(), evCol.TailECT())
		sumAvgSp += avgSp
		sumTailSp += tailSp
		table.AddRow(n, seconds(evCol.AvgECT()), seconds(flCol.AvgECT()),
			seconds(evCol.TailECT()), seconds(flCol.TailECT()), avgSp, tailSp)
	}
	rep.Tables = []*metrics.Table{table}
	rep.headline("mean avg-ECT speedup (paper ~5x)", sumAvgSp/float64(len(counts)))
	rep.headline("mean tail-ECT speedup (paper ~2x)", sumTailSp/float64(len(counts)))
	return rep, nil
}

// norm divides a duration by a base duration (0 when base is 0), matching
// the paper's normalized plots ("divided by the maximum value of the
// flow-level method").
func norm(v, base time.Duration) float64 {
	if base == 0 {
		return 0
	}
	return float64(v) / float64(base)
}
