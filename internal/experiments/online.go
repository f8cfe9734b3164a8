package experiments

import (
	"fmt"
	"time"

	"netupdate/internal/metrics"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
)

// AblationOnline extends the paper's batch-queue setup to online Poisson
// arrivals: events arrive over time with a mean inter-arrival gap, and the
// sweep varies offered load (shorter gaps = heavier load). In queueing
// terms, FIFO's average ECT blows up as the system saturates, while
// P-LMTF's parallel rounds raise the sustainable load; LMTF sits in
// between. This is the deployment-facing view of the same head-of-line
// phenomenon the paper evaluates with a pre-filled queue.
func AblationOnline(opts Options) (*Report, error) {
	k, util, nEvents := 8, 0.6, 40
	minFlows, maxFlows := 10, 60
	gaps := []time.Duration{4 * time.Second, 2 * time.Second, time.Second, 500 * time.Millisecond}

	table := metrics.NewTable("Ablation: online Poisson arrivals (avg ECT seconds / avg queuing delay seconds)",
		"mean gap", "fifo ECT", "fifo delay", "lmtf ECT", "lmtf delay", "p-lmtf ECT", "p-lmtf delay")
	rep := &Report{
		Name:        "ablation-online",
		Description: "Poisson event arrivals across offered loads",
	}
	for gi, gap := range gaps {
		type outcome struct {
			ect, delay time.Duration
		}
		var outcomes []outcome
		for _, mk := range []func() sched.Scheduler{
			func() sched.Scheduler { return sched.FIFO{} },
			func() sched.Scheduler { return sched.NewLMTF(4, opts.Seed) },
			func() sched.Scheduler { return sched.NewPLMTF(4, opts.Seed) },
		} {
			setup := opts.apply(Setup{K: k, Utilization: util, Seed: opts.Seed*1000 + 1700 + int64(gi)})
			env, err := NewEnv(setup)
			if err != nil {
				return nil, err
			}
			events := env.Gen.EventsPoisson(nEvents, minFlows, maxFlows, gap)
			eng := sim.NewEngine(env.Planner, mk(), sim.Config{})
			eng.SetTracer(setup.Tracer)
			col, err := eng.Run(events)
			if err != nil {
				return nil, err
			}
			outcomes = append(outcomes, outcome{ect: col.AvgECT(), delay: col.AvgQueuingDelay()})
		}
		table.AddRow(gap.String(),
			seconds(outcomes[0].ect), seconds(outcomes[0].delay),
			seconds(outcomes[1].ect), seconds(outcomes[1].delay),
			seconds(outcomes[2].ect), seconds(outcomes[2].delay))
		rep.headline(fmt.Sprintf("p-lmtf/fifo ECT ratio @%v", gap),
			norm(outcomes[2].ect, outcomes[0].ect))
	}
	rep.Tables = []*metrics.Table{table}
	rep.Notes = append(rep.Notes,
		"extension beyond the paper: its evaluation always starts from a full queue")
	return rep, nil
}
