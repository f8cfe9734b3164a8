package core

import (
	"reflect"
	"testing"

	"netupdate/internal/flow"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/topology"
)

// coreScenario mirrors the migration package's deterministic graph:
//
//	a -> u -> v -> b   (route for event flows a->b; 1 Gbps bottleneck u->v)
//	c -> u -> v -> d   (victim route) with detour c -> w -> d
type coreScenario struct {
	net        *netstate.Network
	g          *topology.Graph
	a, b, c, d topology.NodeID
	uv         topology.LinkID
	victim     *flow.Flow
}

func newCoreScenario(t *testing.T, victimDemand topology.Bandwidth) *coreScenario {
	t.Helper()
	g := topology.NewGraph()
	a := g.AddNode(topology.KindHost, "a")
	b := g.AddNode(topology.KindHost, "b")
	c := g.AddNode(topology.KindHost, "c")
	d := g.AddNode(topology.KindHost, "d")
	u := g.AddNode(topology.KindEdgeSwitch, "u")
	v := g.AddNode(topology.KindEdgeSwitch, "v")
	w := g.AddNode(topology.KindEdgeSwitch, "w")
	link := func(x, y topology.NodeID) topology.LinkID {
		id, err := g.AddLink(x, y, topology.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	au := link(a, u)
	uv := link(u, v)
	vb := link(v, b)
	cu := link(c, u)
	vd := link(v, d)
	link(c, w)
	link(w, d)
	_, _, _ = au, vb, cu

	net := netstate.New(g, routing.NewBFSProvider(g, 0), routing.WidestFit{})
	s := &coreScenario{net: net, g: g, a: a, b: b, c: c, d: d, uv: uv}
	if victimDemand > 0 {
		f, err := net.AddFlow(flow.Spec{Src: c, Dst: d, Demand: victimDemand})
		if err != nil {
			t.Fatal(err)
		}
		p, err := routing.NewPath(g, []topology.LinkID{cu, uv, vd})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Place(f, p); err != nil {
			t.Fatal(err)
		}
		s.victim = f
	}
	return s
}

func (s *coreScenario) planner(policy FailPolicy) *Planner {
	return NewPlanner(migration.NewPlanner(s.net, 0), policy)
}

func (s *coreScenario) snapshot() []topology.Bandwidth {
	out := make([]topology.Bandwidth, s.g.NumLinks())
	for i := range out {
		out[i] = s.g.Link(topology.LinkID(i)).Reserved()
	}
	return out
}

func TestExecuteAdmitsAllFlows(t *testing.T) {
	s := newCoreScenario(t, 0)
	p := s.planner(0)
	ev := NewEvent(1, "test", 0, []flow.Spec{
		{Src: s.a, Dst: s.b, Demand: 300 * topology.Mbps},
		{Src: s.a, Dst: s.b, Demand: 200 * topology.Mbps},
	})
	res, err := p.Execute(ev)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(res.Admitted) != 2 || res.Failed != 0 {
		t.Fatalf("Admitted = %d, Failed = %d", len(res.Admitted), res.Failed)
	}
	if res.Cost != 0 {
		t.Errorf("Cost = %v, want 0 (no migration needed)", res.Cost)
	}
	if len(ev.Flows) != 2 {
		t.Errorf("event flows = %d, want 2", len(ev.Flows))
	}
	if got := s.g.Link(s.uv).Reserved(); got != 500*topology.Mbps {
		t.Errorf("bottleneck reserved = %v, want 500Mbps", got)
	}
	if ev.CostAtExec != res.Cost {
		t.Errorf("CostAtExec = %v, want %v", ev.CostAtExec, res.Cost)
	}
}

func TestExecuteWithMigrationCost(t *testing.T) {
	s := newCoreScenario(t, 800*topology.Mbps)
	p := s.planner(0)
	ev := NewEvent(1, "test", 0, []flow.Spec{
		{Src: s.a, Dst: s.b, Demand: 500 * topology.Mbps},
	})
	res, err := p.Execute(ev)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Cost != 800*topology.Mbps {
		t.Errorf("Cost = %v, want 800Mbps (victim migrated)", res.Cost)
	}
	if s.victim.Path().Contains(s.uv) {
		t.Error("victim still on bottleneck")
	}
}

func TestExecuteFailSkipRecordsFailures(t *testing.T) {
	// Victim has no detour here: strip the detour by filling it.
	s := newCoreScenario(t, 800*topology.Mbps)
	// Saturate the victim's detour so migration is impossible.
	cw, _ := s.g.LinkBetween(s.c, topology.NodeID(6))
	if err := s.g.Reserve(cw, topology.Gbps); err != nil {
		t.Fatal(err)
	}
	p := s.planner(FailSkip)
	ev := NewEvent(1, "test", 0, []flow.Spec{
		{Src: s.a, Dst: s.b, Demand: 500 * topology.Mbps}, // blocked (bottleneck 200 free)
		{Src: s.a, Dst: s.b, Demand: 100 * topology.Mbps}, // fits
	})
	res, err := p.Execute(ev)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Failed != 1 || len(res.Admitted) != 1 {
		t.Fatalf("Failed = %d, Admitted = %d; want 1, 1", res.Failed, len(res.Admitted))
	}
	if len(ev.FailedSpecs) != 1 || ev.FailedSpecs[0].Demand != 500*topology.Mbps {
		t.Errorf("FailedSpecs = %+v", ev.FailedSpecs)
	}
	if len(ev.Flows) != 1 {
		t.Errorf("event flows = %d, want 1", len(ev.Flows))
	}
	// The failed spec's flow must not linger in the registry.
	if got := s.net.Registry().Len(); got != 2 { // victim + admitted flow
		t.Errorf("registry size = %d, want 2", got)
	}
}

func TestProbeRestoresStateAndPredictsCost(t *testing.T) {
	s := newCoreScenario(t, 800*topology.Mbps)
	p := s.planner(0)
	ev := NewEvent(1, "test", 0, []flow.Spec{
		{Src: s.a, Dst: s.b, Demand: 500 * topology.Mbps},
	})
	before := s.snapshot()
	regBefore := s.net.Registry().Len()
	victimPath := s.victim.Path()

	est, err := p.Probe(ev)
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if !est.Feasible || est.Admittable != 1 {
		t.Errorf("estimate = %+v, want feasible with 1 admittable", est)
	}
	if est.Cost != 800*topology.Mbps {
		t.Errorf("estimated cost = %v, want 800Mbps", est.Cost)
	}
	if est.Evals == 0 {
		t.Error("Evals = 0, want > 0")
	}
	// State fully restored.
	for i, w := range before {
		if got := s.g.Link(topology.LinkID(i)).Reserved(); got != w {
			t.Errorf("link %d reserved = %v, want %v after probe", i, got, w)
		}
	}
	if got := s.net.Registry().Len(); got != regBefore {
		t.Errorf("registry size = %d, want %d after probe", got, regBefore)
	}
	if !s.victim.Path().Equal(victimPath) {
		t.Error("victim path changed by probe")
	}
	if ev.CostAtExec != 0 || len(ev.Flows) != 0 {
		t.Error("probe mutated event bookkeeping")
	}

	// Executing afterwards realizes the estimated cost.
	res, err := p.Execute(ev)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != est.Cost {
		t.Errorf("executed cost %v != estimated %v", res.Cost, est.Cost)
	}
}

func TestProbeInfeasibleEvent(t *testing.T) {
	s := newCoreScenario(t, 800*topology.Mbps)
	cw, _ := s.g.LinkBetween(s.c, topology.NodeID(6))
	if err := s.g.Reserve(cw, topology.Gbps); err != nil {
		t.Fatal(err)
	}
	p := s.planner(0)
	ev := NewEvent(1, "test", 0, []flow.Spec{
		{Src: s.a, Dst: s.b, Demand: 500 * topology.Mbps},
		{Src: s.a, Dst: s.b, Demand: 100 * topology.Mbps},
	})
	before := s.snapshot()
	est, err := p.Probe(ev)
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if est.Feasible || est.Admittable != 1 {
		t.Errorf("estimate = %+v, want infeasible with 1 admittable", est)
	}
	for i, w := range before {
		if got := s.g.Link(topology.LinkID(i)).Reserved(); got != w {
			t.Errorf("link %d reserved = %v, want %v after probe", i, got, w)
		}
	}
	if len(ev.FailedSpecs) != 0 {
		t.Error("probe recorded failed specs on the event")
	}
}

func TestExecuteInvalidSpecFails(t *testing.T) {
	s := newCoreScenario(t, 0)
	p := s.planner(0)
	ev := NewEvent(1, "test", 0, []flow.Spec{
		{Src: s.a, Dst: s.a, Demand: topology.Mbps}, // src == dst
	})
	if _, err := p.Execute(ev); err == nil {
		t.Error("Execute with invalid spec succeeded")
	}
}

func TestPlannerNetworkAccessor(t *testing.T) {
	s := newCoreScenario(t, 0)
	p := s.planner(0)
	if p.Network() != s.net {
		t.Error("Network() returned wrong network")
	}
}

func TestRollbackExecRestoresExactState(t *testing.T) {
	// Use a migration-heavy execute so rollback must also un-migrate the
	// victim, not just withdraw the event's own flows.
	s := newCoreScenario(t, 800*topology.Mbps)
	before := s.snapshot()
	victimPath := s.victim.Path()
	p := s.planner(0)
	ev := NewEvent(1, "test", 0, []flow.Spec{
		{Src: s.a, Dst: s.b, Demand: 500 * topology.Mbps},
	})
	res, err := p.Execute(ev)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Cost == 0 {
		t.Fatal("scenario did not force a migration")
	}

	if err := p.RollbackExec(res); err != nil {
		t.Fatalf("RollbackExec: %v", err)
	}
	after := s.snapshot()
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("link %d reserved = %v, want pre-Execute %v", i, after[i], before[i])
		}
	}
	if !s.victim.Path().Equal(victimPath) {
		t.Errorf("victim path = %v, want restored %v", s.victim.Path(), victimPath)
	}
	if len(ev.Flows) != 0 {
		t.Errorf("event still owns %d flows after rollback", len(ev.Flows))
	}
	// The event's flows are gone from the registry: only the victim remains.
	if got := len(s.net.Registry().Placed()); got != 1 {
		t.Errorf("placed flows after rollback = %d, want 1 (the victim)", got)
	}
}

// TestFailedSpecsSpendTheirIDs: an unadmittable spec spends the flow ID
// it was registered under, and the event goes on past it.
func TestFailedSpecsSpendTheirIDs(t *testing.T) {
	for _, tc := range []struct {
		policy FailPolicy
		flows  []flow.ID // the event's flows, as offsets from the first ID
		next   flow.ID   // the next free ID, as an offset
	}{
		{FailSkip, []flow.ID{0, 2}, 4},
	} {
		s := newCoreScenario(t, 800*topology.Mbps)
		// Saturate the victim's detour so migration is impossible.
		cw, _ := s.g.LinkBetween(s.c, topology.NodeID(6))
		if err := s.g.Reserve(cw, topology.Gbps); err != nil {
			t.Fatal(err)
		}
		first := s.victim.ID + 1 // the scenario registered only the victim
		ev := NewEvent(1, "test", 0, []flow.Spec{
			{Src: s.a, Dst: s.b, Demand: 100 * topology.Mbps}, // fits
			{Src: s.a, Dst: s.b, Demand: 500 * topology.Mbps}, // blocked
			{Src: s.a, Dst: s.b, Demand: 50 * topology.Mbps},  // fits
			{Src: s.a, Dst: s.b, Demand: 500 * topology.Mbps}, // blocked
		})
		_, err := s.planner(tc.policy).Execute(ev)
		if err != nil {
			t.Fatalf("policy %d: Execute error %v", tc.policy, err)
		}
		var got []flow.ID
		for _, f := range ev.Flows {
			got = append(got, f.ID-first)
		}
		if !reflect.DeepEqual(got, tc.flows) {
			t.Errorf("policy %d: event flows at ID offsets %v, want %v", tc.policy, got, tc.flows)
		}
		f, err := s.net.AddFlow(flow.Spec{Src: s.c, Dst: s.d, Demand: topology.Mbps})
		if err != nil {
			t.Fatal(err)
		}
		if f.ID-first != tc.next {
			t.Errorf("policy %d: next flow at ID offset %d, want %d", tc.policy, f.ID-first, tc.next)
		}
	}
}
