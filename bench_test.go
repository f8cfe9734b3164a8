// Package netupdate_test benchmarks the reproduction: one benchmark per
// figure of the paper's evaluation (each iteration regenerates the figure
// in quick mode; run `go run ./cmd/netupdate -all` for the full-scale
// versions), the ablation studies DESIGN.md calls out, whole-simulation
// runs and the two ledger / registry micro-benchmarks bench/layers.go has
// no row for. Per-layer timings (topology build, path lookup, admission,
// probe, decision, fork) live in the bench/ module's layer pass.
package netupdate_test

import (
	"io"
	"testing"

	"netupdate/internal/core"
	"netupdate/internal/experiments"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/obs"
	"netupdate/internal/routing"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

// benchExperiment runs one experiment per iteration in quick mode.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	exp, ok := experiments.Find(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(experiments.Options{Seed: int64(i + 1), Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per figure of the evaluation section.

func BenchmarkFig1(b *testing.B) { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationAlpha(b *testing.B)   { benchExperiment(b, "ablation-alpha") }
func BenchmarkAblationGreedy(b *testing.B)  { benchExperiment(b, "ablation-greedy") }
func BenchmarkAblationReorder(b *testing.B) { benchExperiment(b, "ablation-reorder") }
func BenchmarkAblationChurn(b *testing.B)   { benchExperiment(b, "ablation-churn") }
func BenchmarkAblationSplit(b *testing.B)   { benchExperiment(b, "ablation-split") }
func BenchmarkAblationRuleOps(b *testing.B) { benchExperiment(b, "ablation-ruleops") }
func BenchmarkAblationOnline(b *testing.B)  { benchExperiment(b, "ablation-online") }
func BenchmarkAblationBatch(b *testing.B)   { benchExperiment(b, "ablation-batch") }

// benchEnv builds a loaded k=8 fat-tree once, outside the timed loop.
func benchEnv(b *testing.B, util float64) (*netstate.Network, *topology.FatTree, *trace.Generator) {
	b.Helper()
	ft, err := topology.NewFatTree(8, topology.Gbps)
	if err != nil {
		b.Fatal(err)
	}
	net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(7))
	gen, err := trace.NewGenerator(1, trace.YahooLike{}, ft.Hosts())
	if err != nil {
		b.Fatal(err)
	}
	if util > 0 {
		if _, err := trace.FillBackground(net, gen, util, 0); err != nil {
			b.Fatal(err)
		}
	}
	return net, ft, gen
}

// BenchmarkEndToEnd measures a whole simulation (10 events, k=8, 60%).
func BenchmarkEndToEnd(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"fifo", func() sched.Scheduler { return sched.FIFO{} }},
		{"lmtf", func() sched.Scheduler { return sched.NewLMTF(4, 1) }},
		{"plmtf", func() sched.Scheduler { return sched.NewPLMTF(4, 1) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				net, _, gen := benchEnv(b, 0.6)
				planner := core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)
				events := gen.Events(10, 10, 40)
				engine := sim.NewEngine(planner, tc.mk(), sim.Config{})
				b.StartTimer()
				if _, err := engine.Run(events); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceOverhead measures what observability costs a whole
// simulation: the same P-LMTF run untraced (the nil fast path the <5%
// decision-bench criterion guards), with the in-memory ring sink
// (cmd/updated's always-on configuration) and with a JSONL sink
// (netupdate -trace-out).
func BenchmarkTraceOverhead(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func() *obs.Tracer
	}{
		{"off", func() *obs.Tracer { return nil }},
		{"ring", func() *obs.Tracer {
			return obs.NewTracer(obs.NewRingSink(4096), obs.NewSimMetrics(obs.NewRegistry()))
		}},
		{"jsonl", func() *obs.Tracer {
			return obs.NewTracer(obs.NewJSONLSink(io.Discard), obs.NewSimMetrics(obs.NewRegistry()))
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				net, _, gen := benchEnv(b, 0.6)
				planner := core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)
				events := gen.Events(10, 10, 40)
				engine := sim.NewEngine(planner, sched.NewPLMTF(4, 1), sim.Config{})
				engine.SetTracer(tc.mk())
				b.StartTimer()
				if _, err := engine.Run(events); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFlowLevelEndToEnd measures the flow-level baseline runner.
func BenchmarkFlowLevelEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net, _, gen := benchEnv(b, 0.6)
		planner := core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)
		events := gen.Events(10, 10, 40)
		fl := sim.NewFlowLevel(planner, sim.Config{})
		b.StartTimer()
		if _, err := fl.Run(events); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReserveRelease measures the bandwidth ledger's hot path.
func BenchmarkReserveRelease(b *testing.B) {
	g := topology.NewGraph()
	x := g.AddNode(topology.KindEdgeSwitch, "x")
	y := g.AddNode(topology.KindEdgeSwitch, "y")
	l, err := g.AddLink(x, y, topology.Gbps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Reserve(l, topology.Mbps); err != nil {
			b.Fatal(err)
		}
		if err := g.Release(l, topology.Mbps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistryFlowsOn measures the link->flows inverted index query
// used by every migration-candidate scan.
func BenchmarkRegistryFlowsOn(b *testing.B) {
	net, _, _ := benchEnv(b, 0.6)
	// Find the busiest link.
	g := net.Graph()
	var busiest topology.LinkID
	for i := 0; i < g.NumLinks(); i++ {
		if net.Registry().NumFlowsOn(topology.LinkID(i)) > net.Registry().NumFlowsOn(busiest) {
			busiest = topology.LinkID(i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Registry().FlowsOn(busiest)
	}
}
