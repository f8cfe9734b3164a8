package core

import (
	"testing"

	"netupdate/internal/flow"
	"netupdate/internal/migration"
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

// forkOracle returns a planner over a fork of the scenario's network: a
// copy no probe under test has ever touched.
func forkOracle(s *coreScenario) *Planner {
	return NewPlanner(migration.NewPlanner(s.net.Fork(), 0), FailSkip)
}

// TestProbeEngineMatchesDirectProbe: a probe on the live network must
// return exactly what the same probe returns on an untouched fork, leave
// no trace on the live network, and be counted once.
func TestProbeEngineMatchesDirectProbe(t *testing.T) {
	s := newCoreScenario(t, 800*topology.Mbps)
	p := s.planner(0)
	evs := probeScenarioEvents(s)
	before := captureLive(s.net)
	oracle := forkOracle(s)

	for i, ev := range evs {
		got, err := p.Probe(ev)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Probe(ev)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Errorf("ev%d: live probe %+v, fork probe %+v", i, *got, *want)
		}
		if i == 0 && got.Cost == 0 {
			t.Fatal("scenario too tame: the 500Mbps probe must migrate the victim")
		}
	}
	before.requireEqual(t, captureLive(s.net), "Planner.Probe")
	if st := p.ProbeStats(); st.Probes != len(evs) || st.WallTime <= 0 {
		t.Errorf("stats = %+v, want %d probes with wall time recorded", st, len(evs))
	}
}

// TestProbeAfterCommitSeesCommit: a probe after a live commit must reflect
// the committed state.
func TestProbeAfterCommitSeesCommit(t *testing.T) {
	s := newCoreScenario(t, 0)
	p := s.planner(0)
	ev := NewEvent(1, "probe", 0, []flow.Spec{{Src: s.a, Dst: s.b, Demand: 600 * topology.Mbps}})

	est, err := p.Probe(ev)
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
	est, err = p.Probe(ev)
	if err != nil {
		t.Fatal(err)
	}
	if est.Feasible {
		t.Errorf("probe after commit = %+v, want an infeasible estimate", *est)
	}
}

// TestProbeEngineStress drives many rounds of probes interleaved with
// live commits; every probe must leave the live state as it found it.
func TestProbeEngineStress(t *testing.T) {
	s := newCoreScenario(t, 800*topology.Mbps)
	p := s.planner(0)
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
		before := captureLive(s.net)
		for _, ev := range evs {
			if _, err := p.Probe(ev); err != nil {
				t.Fatal(err)
			}
		}
		before.requireEqual(t, captureLive(s.net), "Planner.Probe")
		// Perturb live state between rounds.
		commit := NewEvent(flow.EventID(100+round), "commit", 0, []flow.Spec{
			{Src: s.a, Dst: s.b, Demand: 10 * topology.Mbps},
		})
		if _, err := p.Execute(commit); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.ProbeStats(); st.Probes != 5*len(evs) {
		t.Errorf("counted %d probes, want %d", st.Probes, 5*len(evs))
	}
}
