package core

import (
	"testing"

	"netupdate/internal/flow"
	"netupdate/internal/topology"
)

func probeScenarioEvents(s *coreScenario) []*Event {
	return []*Event{
		NewEvent(1, "probe", 0, []flow.Spec{{Src: s.a, Dst: s.b, Demand: 500 * topology.Mbps}}),
		NewEvent(2, "probe", 0, []flow.Spec{{Src: s.a, Dst: s.b, Demand: 100 * topology.Mbps}}),
		NewEvent(3, "probe", 0, []flow.Spec{
			{Src: s.c, Dst: s.d, Demand: 50 * topology.Mbps},
			{Src: s.a, Dst: s.b, Demand: 50 * topology.Mbps},
		}),
	}
}

// TestProbeEngineMatchesDirectProbe: the engine must return exactly what
// Planner.Probe on the live network returns, and neither may leave a
// trace on the live network.
func TestProbeEngineMatchesDirectProbe(t *testing.T) {
	s := newCoreScenario(t, 800*topology.Mbps)
	p := s.planner(0)
	evs := probeScenarioEvents(s)
	before := captureLive(s.net, 0)

	want := make([]*Estimate, len(evs))
	for i, ev := range evs {
		est, err := p.Probe(ev)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = est
	}
	if want[0].Cost == 0 {
		t.Fatal("scenario too tame: the 500Mbps probe must migrate the victim")
	}
	before.requireEqual(t, captureLive(s.net, 0), "Planner.Probe")

	pe := NewProbeEngine(p)
	got, err := pe.ProbeAll(evs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range evs {
		if got[i].Cost != want[i].Cost || got[i].Feasible != want[i].Feasible ||
			got[i].Admittable != want[i].Admittable || got[i].Evals != want[i].Evals {
			t.Errorf("ev%d: engine estimate %+v, direct probe %+v", i, *got[i], *want[i])
		}
	}
	before.requireEqual(t, captureLive(s.net, 0), "ProbeAll")
	if st := pe.Stats(); st.Misses != len(evs) || st.Hits != 0 {
		t.Errorf("stats = %+v, want %d cold misses", st, len(evs))
	}
}

// TestProbeEngineCaches: re-probing with unchanged links must hit the
// cache (Evals 0, same numbers); a live commit that touches the probed
// links must invalidate, and Forget must evict.
func TestProbeEngineCaches(t *testing.T) {
	s := newCoreScenario(t, 800*topology.Mbps)
	p := s.planner(0)
	pe := NewProbeEngine(p)
	evs := probeScenarioEvents(s)

	first, err := pe.ProbeAll(evs)
	if err != nil {
		t.Fatal(err)
	}
	second, err := pe.ProbeAll(evs)
	if err != nil {
		t.Fatal(err)
	}
	if st := pe.Stats(); st.Hits != len(evs) || st.Misses != len(evs) {
		t.Fatalf("stats after repeat = %+v, want %d hits / %d misses", st, len(evs), len(evs))
	}
	for i := range evs {
		if second[i].Cost != first[i].Cost || second[i].Admittable != first[i].Admittable {
			t.Errorf("ev%d: cached estimate %+v differs from fresh %+v", i, *second[i], *first[i])
		}
		if second[i].Evals != first[i].Evals {
			t.Errorf("ev%d: cache hit reported Evals=%d, want %d (a replay's work)",
				i, second[i].Evals, first[i].Evals)
		}
	}

	// Committing 100Mbps on the bottleneck leaves 100Mbps residual. That
	// bumps every entry's version, but headroom revalidation keeps the
	// small events (100Mbps and 50+50Mbps: residual still covers their
	// desired paths) — only the 500Mbps event must be replanned.
	commit := NewEvent(9, "commit", 0, []flow.Spec{{Src: s.a, Dst: s.b, Demand: 100 * topology.Mbps}})
	if _, err := p.Execute(commit); err != nil {
		t.Fatal(err)
	}
	if _, err := pe.ProbeAll(evs); err != nil {
		t.Fatal(err)
	}
	if st := pe.Stats(); st.Misses != len(evs)+1 || st.Hits != 2*len(evs)-1 {
		t.Errorf("stats after commit = %+v, want %d misses / %d hits",
			pe.Stats(), len(evs)+1, 2*len(evs)-1)
	}

	pe.Forget(evs[0].ID)
	if _, err := pe.Probe(evs[0]); err != nil {
		t.Fatal(err)
	}
	if st := pe.Stats(); st.Misses != len(evs)+2 {
		t.Errorf("misses after Forget = %d, want %d", st.Misses, len(evs)+2)
	}
}

// TestProbeAfterCommitSeesCommit: a probe after a live commit must reflect
// the committed state, not the estimate cached before it.
func TestProbeAfterCommitSeesCommit(t *testing.T) {
	s := newCoreScenario(t, 0)
	p := s.planner(0)
	pe := NewProbeEngine(p)
	ev := NewEvent(1, "probe", 0, []flow.Spec{{Src: s.a, Dst: s.b, Demand: 600 * topology.Mbps}})

	est, err := pe.Probe(ev)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Feasible {
		t.Fatal("600Mbps must fit an empty bottleneck")
	}
	// Fill the bottleneck on the live network; the same probe must now
	// reflect the new state.
	commit := NewEvent(2, "commit", 0, []flow.Spec{{Src: s.a, Dst: s.b, Demand: 700 * topology.Mbps}})
	if _, err := p.Execute(commit); err != nil {
		t.Fatal(err)
	}
	est, err = pe.Probe(ev)
	if err != nil {
		t.Fatal(err)
	}
	if est.Feasible || est.FromCache {
		t.Errorf("probe after commit = %+v, want a fresh infeasible estimate", *est)
	}
}

// TestProbeEngineStress drives many rounds of probes interleaved with
// live commits that invalidate part of the cache.
func TestProbeEngineStress(t *testing.T) {
	s := newCoreScenario(t, 800*topology.Mbps)
	p := s.planner(0)
	pe := NewProbeEngine(p)
	var evs []*Event
	for i := 0; i < 24; i++ {
		demand := topology.Bandwidth(i%7+1) * 20 * topology.Mbps
		src, dst := s.a, s.b
		if i%3 == 0 {
			src, dst = s.c, s.d
		}
		evs = append(evs, NewEvent(flow.EventID(i+1), "stress", 0, []flow.Spec{
			{Src: src, Dst: dst, Demand: demand},
		}))
	}
	for round := 0; round < 5; round++ {
		if _, err := pe.ProbeAll(evs); err != nil {
			t.Fatal(err)
		}
		// Perturb live state between rounds to force invalidation.
		commit := NewEvent(flow.EventID(100+round), "commit", 0, []flow.Spec{
			{Src: s.a, Dst: s.b, Demand: 10 * topology.Mbps},
		})
		if _, err := p.Execute(commit); err != nil {
			t.Fatal(err)
		}
	}
	st := pe.Stats()
	if st.Hits == 0 {
		t.Error("stress run produced no cache hits")
	}
}
