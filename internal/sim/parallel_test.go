package sim

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"netupdate/internal/core"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/sched"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

// parallelRun simulates a fixed 20-event workload on a loaded k=4 fat-tree
// under the given scheduler, returning the decision sequence (records in
// completion order) and a fingerprint of the final network state.
func parallelRun(t *testing.T, mkSched func() sched.Scheduler) (decisions, state string) {
	t.Helper()
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	g := ft.Graph()
	net := netstate.New(g, routing.NewFatTreeProvider(ft), routing.NewRandomFit(41))
	gen, err := trace.NewGenerator(17, trace.YahooLike{}, ft.Hosts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.FillBackground(net, gen, 0.6, 0); err != nil {
		t.Fatal(err)
	}
	planner := core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)
	events := gen.Events(20, 3, 15)
	eng := NewEngine(planner, mkSched(), Config{})
	col, err := eng.Run(events)
	if err != nil {
		t.Fatal(err)
	}

	var dec strings.Builder
	for _, r := range col.Records() {
		fmt.Fprintf(&dec, "ev%d flows=%d failed=%d cost=%v start=%v end=%v\n",
			r.Event, r.Flows, r.Failed, r.Cost, r.Start, r.Completion)
	}

	var st strings.Builder
	for i := 0; i < g.NumLinks(); i++ {
		fmt.Fprintf(&st, "link%d=%v\n", i, g.Link(topology.LinkID(i)).Reserved())
	}
	var placements []string
	for _, f := range net.Registry().Placed() {
		placements = append(placements, fmt.Sprintf("flow%d:%v", f.ID, f.Path().Links()))
	}
	sort.Strings(placements)
	st.WriteString(strings.Join(placements, "\n"))
	return dec.String(), st.String()
}

// uncached runs a probing scheduler with its probe cache emptied before
// every decision, so each of its probes is a fresh trial plan. It hides
// the inner scheduler's CostProber side, which makes the engine re-probe
// co-schedule candidates with Planner.Probe instead of the cache.
type uncached struct{ inner sched.CostProber }

func (u uncached) Name() string { return u.inner.Name() }

func (u uncached) Pick(q *sched.Queue, p *core.Planner) (sched.Decision, error) {
	pe := u.inner.ProbeEngine(p)
	for i := 0; i < q.Len(); i++ {
		pe.Forget(q.At(i).ID)
	}
	return u.inner.Pick(q, p)
}

// TestProbeCacheIsScheduleInvariant: the epoch cache buys wall-clock
// planning speed only — the decision sequence and the final network state
// must be bit-identical between cached probing and a fresh trial plan per
// probe, for both probing schedulers.
func TestProbeCacheIsScheduleInvariant(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() sched.CostProber
	}{
		{"lmtf", func() sched.CostProber { return sched.NewLMTF(4, 7) }},
		{"plmtf", func() sched.CostProber { return sched.NewPLMTF(4, 7) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cachedDec, cachedState := parallelRun(t, func() sched.Scheduler { return tc.mk() })
			freshDec, freshState := parallelRun(t, func() sched.Scheduler { return uncached{tc.mk()} })
			if cachedDec != freshDec {
				t.Errorf("decision sequences diverge between cached and uncached probing:\n--- cached ---\n%s--- uncached ---\n%s",
					cachedDec, freshDec)
			}
			if cachedState != freshState {
				t.Error("final network state diverges between cached and uncached probing")
			}
			if cachedDec == "" {
				t.Fatal("no decisions recorded")
			}
		})
	}
}

// TestParallelProbingCacheHitRate: the acceptance bar — at 60% utilization
// the epoch cache must answer at least half of all scheduler probes across
// an end-to-end run. A k=8 fabric with moderate event sizes keeps most
// estimates provably stable between rounds (on a 16-host k=4 fabric the
// events genuinely contend, so estimates — and hence misses — change for
// real; that regime is covered by TestProbeCacheIsScheduleInvariant).
func TestParallelProbingCacheHitRate(t *testing.T) {
	ft, err := topology.NewFatTree(8, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(41))
	gen, err := trace.NewGenerator(17, trace.YahooLike{}, ft.Hosts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.FillBackground(net, gen, 0.6, 0); err != nil {
		t.Fatal(err)
	}
	planner := core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)
	events := gen.Events(30, 2, 6)
	eng := NewEngine(planner, sched.NewLMTF(9, 7), Config{})
	col, err := eng.Run(events)
	if err != nil {
		t.Fatal(err)
	}
	if col.ProbeCacheHits+col.ProbeCacheMisses == 0 {
		t.Fatal("no probes recorded")
	}
	if rate := col.ProbeHitRate(); rate < 0.5 {
		t.Errorf("probe cache hit rate = %.2f (%d/%d), want >= 0.5",
			rate, col.ProbeCacheHits, col.ProbeCacheHits+col.ProbeCacheMisses)
	}
	if col.ProbeWallTime <= 0 {
		t.Error("probe wall time not recorded")
	}
}
