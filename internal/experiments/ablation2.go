package experiments

import (
	"time"

	"netupdate/internal/metrics"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
	"netupdate/internal/trace"
)

// AblationChurn evaluates the schedulers while background traffic churns —
// the "update queue in flux" condition of Section IV-A that motivates
// LMTF's per-round cost re-probing. With churn, an event's cost when it
// executes differs from its cost when first queued; the ablation checks
// the LMTF/P-LMTF advantage survives.
func AblationChurn(opts Options) (*Report, error) {
	k, util, nEvents := 8, 0.6, 30
	minFlows, maxFlows := 10, 100
	variants := []struct {
		name  string
		churn *sim.ChurnConfig
	}{
		{"static background", nil},
		{"churning background", &sim.ChurnConfig{
			Interval: 500 * time.Millisecond,
			Fraction: 0.05,
			Seed:     opts.Seed + 77,
		}},
	}

	rep := &Report{
		Name:        "ablation-churn",
		Description: "scheduler benefit with background traffic in flux",
	}
	for _, variant := range variants {
		table := metrics.NewTable("Ablation ("+variant.name+"): vs FIFO",
			"scheduler", "avg ECT (s)", "tail ECT (s)", "avg red.", "cost (Mbps)")
		setup := opts.apply(Setup{
			K: k, Utilization: util,
			Seed:  opts.Seed*1000 + 1400,
			Churn: variant.churn,
		})
		fifo, err := runScheduler(setup, func() sched.Scheduler { return sched.FIFO{} }, nEvents, minFlows, maxFlows)
		if err != nil {
			return nil, err
		}
		table.AddRow("fifo", seconds(fifo.AvgECT()), seconds(fifo.TailECT()), 0.0, bwMbps(fifo.TotalCost()))
		for _, mk := range []func() sched.Scheduler{
			func() sched.Scheduler { return sched.NewLMTF(4, setup.Seed) },
			func() sched.Scheduler { return sched.NewPLMTF(4, setup.Seed) },
		} {
			s := mk()
			col, err := runScheduler(setup, mk, nEvents, minFlows, maxFlows)
			if err != nil {
				return nil, err
			}
			red := metrics.Reduction(fifo.AvgECT(), col.AvgECT())
			table.AddRow(s.Name(), seconds(col.AvgECT()), seconds(col.TailECT()), red, bwMbps(col.TotalCost()))
			rep.headline(s.Name()+" avg red. ("+variant.name+")", red)
		}
		rep.Tables = append(rep.Tables, table)
	}
	return rep, nil
}

// AblationSplit measures what two-splittable victim migration (after
// Foerster & Wattenhofer [18], the paper's related work) buys at high
// utilization: victims with no single wide-enough detour can be split
// over two, so fewer event flows are unadmittable.
func AblationSplit(opts Options) (*Report, error) {
	k, util, nEvents := 8, 0.6, 20
	minFlows, maxFlows := 5, 30
	// Elephant-scale demands (100-400 Mbps): with 1 Gbps links, a single
	// detour with enough headroom is scarce, which is where splitting a
	// victim across two paths can matter.
	model := trace.Uniform{MinDemandMbps: 100, MaxDemandMbps: 400}
	table := metrics.NewTable("Ablation: unsplittable vs two-splittable migration (LMTF, elephant flows)",
		"migration", "failed flows", "total cost (Mbps)", "avg ECT (s)")
	rep := &Report{
		Name:        "ablation-split",
		Description: "two-splittable victim migration at high utilization",
	}
	for _, split := range []bool{false, true} {
		name := "unsplittable"
		if split {
			name = "two-splittable"
		}
		setup := opts.apply(Setup{
			K: k, Utilization: util, Model: model,
			Seed:       opts.Seed*1000 + 1600,
			AllowSplit: split,
		})
		col, err := runScheduler(setup, func() sched.Scheduler { return sched.NewLMTF(4, setup.Seed) },
			nEvents, minFlows, maxFlows)
		if err != nil {
			return nil, err
		}
		table.AddRow(name, col.TotalFailed(), bwMbps(col.TotalCost()), seconds(col.AvgECT()))
		rep.headline("failed flows "+name, float64(col.TotalFailed()))
	}
	rep.Tables = []*metrics.Table{table}
	return rep, nil
}

// AblationBatch compares P-LMTF's sampled opportunistic scan (α
// candidates) with scanning the whole queue — the alternative Section
// IV-C rejects for its computation cost. Full scan buys a little more
// parallelism per round at a large planning-work multiplier.
func AblationBatch(opts Options) (*Report, error) {
	k, util, nEvents := 8, 0.6, 30
	minFlows, maxFlows := 10, 100
	setup := opts.apply(Setup{K: k, Utilization: util, Seed: opts.Seed*1000 + 1800})
	table := metrics.NewTable("Ablation: opportunistic batch width (P-LMTF)",
		"scan", "avg ECT (s)", "tail ECT (s)", "decision evals", "plan time (s)")
	rep := &Report{
		Name:        "ablation-batch",
		Description: "sampled vs full-queue opportunistic co-scheduling",
	}
	for _, full := range []bool{false, true} {
		opts := []sched.Option{sched.WithAlpha(4), sched.WithSeed(setup.Seed)}
		if full {
			opts = append(opts, sched.WithScanAll())
		}
		mk := func() sched.Scheduler {
			s, err := sched.New("p-lmtf", opts...)
			if err != nil {
				panic(err) // "p-lmtf" is a built-in policy
			}
			return s
		}
		name := "sampled (alpha=4)"
		if full {
			name = "full queue"
		}
		col, err := runScheduler(setup, mk, nEvents, minFlows, maxFlows)
		if err != nil {
			return nil, err
		}
		table.AddRow(name, seconds(col.AvgECT()), seconds(col.TailECT()),
			col.DecisionEvals, seconds(col.PlanTime))
		rep.headline("decision evals "+name, float64(col.DecisionEvals))
		rep.headline("avg ECT "+name, col.AvgECT().Seconds())
	}
	rep.Tables = []*metrics.Table{table}
	return rep, nil
}

// AblationRuleOps compares the coarse per-flow install model against
// rule-operation-level accounting (internal/consistency): with per-rule
// charging, cross-pod flows (6 rule ops) cost three times a same-edge
// flow (2 ops), and migrations add their two-phase op counts.
func AblationRuleOps(opts Options) (*Report, error) {
	k, util, nEvents := 8, 0.6, 20
	minFlows, maxFlows := 10, 100
	variants := []struct {
		name string
		cfg  sim.Config
	}{
		{"per-flow install (10ms)", sim.Config{}},
		{"per-rule-op install (2ms/op)", sim.Config{PerRuleOpTime: 2 * time.Millisecond}},
	}
	table := metrics.NewTable("Ablation: install-time accounting granularity (LMTF)",
		"accounting", "avg ECT (s)", "tail ECT (s)", "makespan (s)")
	rep := &Report{
		Name:        "ablation-ruleops",
		Description: "per-flow vs per-rule-operation install accounting",
	}
	for _, variant := range variants {
		setup := opts.apply(Setup{
			K: k, Utilization: util,
			Seed:   opts.Seed*1000 + 1500,
			Config: variant.cfg,
		})
		col, err := runScheduler(setup, func() sched.Scheduler { return sched.NewLMTF(4, setup.Seed) },
			nEvents, minFlows, maxFlows)
		if err != nil {
			return nil, err
		}
		table.AddRow(variant.name, seconds(col.AvgECT()), seconds(col.TailECT()), seconds(col.Makespan))
		rep.headline("avg ECT "+variant.name, col.AvgECT().Seconds())
	}
	rep.Tables = []*metrics.Table{table}
	return rep, nil
}
