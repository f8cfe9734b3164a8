// Package netupdate_test benchmarks the reproduction: one benchmark per
// figure of the paper's evaluation (each iteration regenerates the figure
// at the paper's size, as `go run ./cmd/netupdate -all` prints it), the
// ablation studies DESIGN.md calls out, whole-simulation
// runs and the ledger, link-index and path-table micro-benchmarks
// bench/layers.go has no row for. Per-layer timings (topology build, path lookup, admission,
// probe, decision, fork) live in the bench/ module's layer pass.
package netupdate_test

import (
	"fmt"
	"io"
	"sort"
	"testing"

	"netupdate/internal/core"
	"netupdate/internal/experiments"
	"netupdate/internal/flow"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/obs"
	"netupdate/internal/routing"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

// benchExperiment runs one experiment per iteration, under seeds 1, 2, ….
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	exp, ok := experiments.Find(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(experiments.Options{Seed: int64(i + 1)}); err != nil {
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

// BenchmarkAdmitRollback admits one YahooLike flow (generator seed 1001,
// 512 specs in turn) into the world BenchmarkPaperRegimeDrain drains and
// undoes it again: migration.Planner.Admit (plan on the view, apply)
// plus Rollback, the flow-level baseline's per-flow path.
func BenchmarkAdmitRollback(b *testing.B) {
	w, err := sim.Genesis{K: 8, Seed: 1}.Build(0.6)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := trace.NewGenerator(1001, trace.YahooLike{}, w.FatTree.Hosts())
	if err != nil {
		b.Fatal(err)
	}
	specs := gen.Specs(512)
	net, mig := w.Planner.Network(), w.Planner.Migration()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := specs[i%len(specs)]
		spec.Event = 1
		f, err := net.AddFlow(spec)
		if err != nil {
			b.Fatal(err)
		}
		if res, err := mig.Admit(f); err == nil {
			if err := mig.Rollback(res); err != nil {
				b.Fatal(err)
			}
		}
		if err := net.Remove(f); err != nil {
			b.Fatal(err)
		}
	}
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

// BenchmarkPaperRegimeDrain drains the paper-regime run that
// sim.TestPaperPlanDecisionsPinned pins: 150 YahooLike events of 10-100
// flows from generator seed 1001 on Genesis{K: 8, Seed: 1} at 60 %, under
// P-LMTF α = 4. Probing prices each event by trial migration planning, so
// this is the planner's hot loop at the paper's scale. World and events
// are rebuilt outside the timer.
func BenchmarkPaperRegimeDrain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, err := sim.Genesis{K: 8, Seed: 1}.Build(0.6)
		if err != nil {
			b.Fatal(err)
		}
		gen, err := trace.NewGenerator(1001, trace.YahooLike{}, w.FatTree.Hosts())
		if err != nil {
			b.Fatal(err)
		}
		events := gen.Events(150, 10, 100)
		engine := sim.NewEngine(w.Planner, sched.NewPLMTF(4, 1), sim.Config{})
		b.StartTimer()
		if _, err := engine.Run(events); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracedFIFODrain drains daemon-shaped rounds: 4 000 events of
// 1-4 flows under FIFO, one round per event, on Genesis{K: k, Seed: 1}
// at 30 % with the tracer the ctl server attaches (a 4096-record ring
// plus the registry's engine metrics). A round costs what it executes,
// so ns/event should not grow from k=4 (96 links) to k=8 (768 links).
// World and events are rebuilt outside the timer.
func BenchmarkTracedFIFODrain(b *testing.B) {
	for _, k := range []int{4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) { benchTracedFIFODrain(b, k) })
	}
}

// benchTracedFIFODrain is one fabric size of BenchmarkTracedFIFODrain.
func benchTracedFIFODrain(b *testing.B, k int) {
	const events = 4000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, err := sim.Genesis{K: k, Seed: 1}.Build(0.3)
		if err != nil {
			b.Fatal(err)
		}
		gen, err := trace.NewGenerator(1001, trace.YahooLike{}, w.FatTree.Hosts())
		if err != nil {
			b.Fatal(err)
		}
		evs := gen.Events(events, 1, 4)
		engine := sim.NewEngine(w.Planner, sched.FIFO{}, sim.Config{})
		engine.SetTracer(obs.NewTracer(obs.NewRingSink(4096), obs.NewSimMetrics(obs.NewRegistry())))
		b.StartTimer()
		if _, err := engine.Run(evs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}

// BenchmarkProbe55 prices one 55-flow YahooLike event (generator seed
// 1001) on the world BenchmarkPaperRegimeDrain drains, Genesis{K: 8,
// Seed: 1} at 60 %: the core.Planner.Probe every LMTF candidate pays.
func BenchmarkProbe55(b *testing.B) {
	w, err := sim.Genesis{K: 8, Seed: 1}.Build(0.6)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := trace.NewGenerator(1001, trace.YahooLike{}, w.FatTree.Hosts())
	if err != nil {
		b.Fatal(err)
	}
	ev := gen.Event(1, "bench", 0, 55, 55)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Planner.Probe(ev); err != nil {
			b.Fatal(err)
		}
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

// Sinks keep the compiler from eliding a measured call.
var (
	sinkFlows []*flow.Flow
	sinkPaths routing.PathSet
)

// BenchmarkFlowsAcross measures the candidate-set union of Definition 1
// (netstate.Network.FlowsAcross) over the five busiest links of the
// 0.6-utilised fabric — the largest congested set a desired path of the
// migration planner can present.
func BenchmarkFlowsAcross(b *testing.B) {
	net, _, _ := benchEnv(b, 0.6)
	reg := net.Registry()
	links := make([]topology.LinkID, net.Graph().NumLinks())
	for i := range links {
		links[i] = topology.LinkID(i)
	}
	sort.SliceStable(links, func(i, j int) bool { return reg.NumFlowsOn(links[i]) > reg.NumFlowsOn(links[j]) })
	links = links[:5]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFlows = net.FlowsAcross(links, flow.NoEvent)
	}
}

// BenchmarkPathsAllPairsCold measures building a fresh k=8 provider (its
// edge-pair table) plus 16 256 queries, one per ordered host pair: the
// cold path cost a recovering daemon pays, since every world builds its
// own provider. The queries allocate nothing; the build is a fixed few
// allocations.
func BenchmarkPathsAllPairsCold(b *testing.B) {
	ft, err := topology.NewFatTree(8, topology.Gbps)
	if err != nil {
		b.Fatal(err)
	}
	hosts := ft.Hosts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prov := routing.NewFatTreeProvider(ft)
		for _, src := range hosts {
			for _, dst := range hosts {
				sinkPaths = prov.Paths(src, dst)
			}
		}
	}
}
