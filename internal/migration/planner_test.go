package migration

import (
	"errors"
	"testing"

	"netupdate/internal/flow"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/topology"
)

// migrationScenario is a hand-built graph where migration outcomes are
// fully deterministic:
//
//	a -> u -> v -> b        (the only route for the new flow a->b)
//	c -> u -> v -> d        (victim route, shares the u->v bottleneck)
//	c -> w -> d             (victim detour, off the bottleneck)
//
// All links are 1 Gbps.
type migrationScenario struct {
	net        *netstate.Network
	g          *topology.Graph
	a, b, c, d topology.NodeID
	uv         topology.LinkID
}

func newScenario(t *testing.T, withDetour bool) *migrationScenario {
	t.Helper()
	g := topology.NewGraph()
	a := g.AddNode(topology.KindHost, "a")
	b := g.AddNode(topology.KindHost, "b")
	c := g.AddNode(topology.KindHost, "c")
	d := g.AddNode(topology.KindHost, "d")
	u := g.AddNode(topology.KindEdgeSwitch, "u")
	v := g.AddNode(topology.KindEdgeSwitch, "v")

	link := func(x, y topology.NodeID) topology.LinkID {
		id, err := g.AddLink(x, y, topology.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	link(a, u)
	uv := link(u, v)
	link(v, b)
	link(c, u)
	link(v, d)
	if withDetour {
		w := g.AddNode(topology.KindEdgeSwitch, "w")
		link(c, w)
		link(w, d)
	}
	net := netstate.New(g, routing.NewBFSProvider(g, 0), routing.WidestFit{})
	return &migrationScenario{net: net, g: g, a: a, b: b, c: c, d: d, uv: uv}
}

// placeVictim admits a c->d flow (which lands on the 3-hop u/v route when
// it is the shortest — with the detour present both routes are length 3
// ... the detour is length 2, so force the bottleneck route explicitly).
func (s *migrationScenario) placeVictim(t *testing.T, demand topology.Bandwidth, event flow.EventID) *flow.Flow {
	t.Helper()
	f, err := s.net.AddFlow(flow.Spec{Src: s.c, Dst: s.d, Demand: demand, Event: event})
	if err != nil {
		t.Fatal(err)
	}
	// Build the bottleneck path c->u->v->d by hand.
	cu, _ := s.g.LinkBetween(s.c, topology.NodeID(4)) // u has ID 4 (5th node added)
	vd, _ := s.g.LinkBetween(topology.NodeID(5), s.d) // v has ID 5
	p, err := routing.NewPath(s.g, []topology.LinkID{cu, s.uv, vd})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.net.Place(f, p); err != nil {
		t.Fatal(err)
	}
	return f
}

// snapshot captures every link's reserved bandwidth.
func snapshot(g *topology.Graph) []topology.Bandwidth {
	out := make([]topology.Bandwidth, g.NumLinks())
	for i := range out {
		out[i] = g.Link(topology.LinkID(i)).Reserved()
	}
	return out
}

func assertSnapshot(t *testing.T, g *topology.Graph, want []topology.Bandwidth) {
	t.Helper()
	for i, w := range want {
		if got := g.Link(topology.LinkID(i)).Reserved(); got != w {
			t.Errorf("link %d reserved = %v, want %v", i, got, w)
		}
	}
}

func TestAdmitFastPathNoMigration(t *testing.T) {
	s := newScenario(t, true)
	p := NewPlanner(s.net, 0)
	f, err := s.net.AddFlow(flow.Spec{Src: s.a, Dst: s.b, Demand: 500 * topology.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Admit(f)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if len(res.Moves) != 0 || res.MigratedTraffic != 0 {
		t.Errorf("fast path produced moves: %+v", res)
	}
	if !f.Placed() {
		t.Error("flow not placed")
	}
	if res.Evals == 0 {
		t.Error("Evals = 0, want > 0")
	}
}

func TestAdmitWithMigration(t *testing.T) {
	s := newScenario(t, true)
	p := NewPlanner(s.net, 0)
	victim := s.placeVictim(t, 800*topology.Mbps, flow.NoEvent)

	f, err := s.net.AddFlow(flow.Spec{Src: s.a, Dst: s.b, Demand: 500 * topology.Mbps, Event: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Admit(f)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if len(res.Moves) != 1 || res.Moves[0].Flow != victim {
		t.Fatalf("Moves = %+v, want single migration of victim", res.Moves)
	}
	if res.MigratedTraffic != 800*topology.Mbps {
		t.Errorf("MigratedTraffic = %v, want 800Mbps", res.MigratedTraffic)
	}
	if !f.Placed() || !f.Path().Contains(s.uv) {
		t.Error("new flow not placed over the cleared bottleneck")
	}
	if victim.Path().Contains(s.uv) {
		t.Error("victim still crosses the bottleneck")
	}
	// Congestion-freedom: no link over capacity.
	for i := 0; i < s.g.NumLinks(); i++ {
		if l := s.g.Link(topology.LinkID(i)); l.Residual() < 0 {
			t.Errorf("link %v over capacity", l)
		}
	}
}

func TestAdmitFailsWithoutDetour(t *testing.T) {
	s := newScenario(t, false)
	p := NewPlanner(s.net, 0)
	s.placeVictim(t, 800*topology.Mbps, flow.NoEvent)
	before := snapshot(s.g)

	f, err := s.net.AddFlow(flow.Spec{Src: s.a, Dst: s.b, Demand: 500 * topology.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Admit(f)
	if !errors.Is(err, ErrCannotAdmit) {
		t.Fatalf("Admit error = %v, want ErrCannotAdmit", err)
	}
	if res == nil || res.Evals == 0 {
		t.Error("failed Admit must still report eval work")
	}
	// The text and the work are pinned: one candidate path for f, one
	// victim across u->v, and that victim's one candidate scanned (it
	// only transits u and v, so its endpoints do not pin it).
	const text = "admit flow#1(0->1 500Mbps unplaced): deficits 1 links short 300Mbps total uncovered: cannot admit flow even with migration"
	if got := err.Error(); got != text {
		t.Errorf("Admit error text = %q, want %q", got, text)
	}
	if res != nil && res.Evals != 3 {
		t.Errorf("Evals = %d, want 3", res.Evals)
	}
	if f.Placed() {
		t.Error("flow placed despite failure")
	}
	assertSnapshot(t, s.g, before)
}

func TestAdmitDoesNotMigrateOwnEventFlows(t *testing.T) {
	s := newScenario(t, true)
	p := NewPlanner(s.net, 0)
	// The victim belongs to the same event as the new flow: migrating it
	// is forbidden, and nothing else can free the bottleneck.
	s.placeVictim(t, 800*topology.Mbps, 7)
	f, err := s.net.AddFlow(flow.Spec{Src: s.a, Dst: s.b, Demand: 500 * topology.Mbps, Event: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Admit(f); !errors.Is(err, ErrCannotAdmit) {
		t.Fatalf("Admit error = %v, want ErrCannotAdmit", err)
	}
}

func TestRollbackRestoresExactState(t *testing.T) {
	s := newScenario(t, true)
	p := NewPlanner(s.net, 0)
	victim := s.placeVictim(t, 800*topology.Mbps, flow.NoEvent)
	victimPath := victim.Path()
	before := snapshot(s.g)

	f, err := s.net.AddFlow(flow.Spec{Src: s.a, Dst: s.b, Demand: 500 * topology.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Admit(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Rollback(res); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	assertSnapshot(t, s.g, before)
	if !victim.Path().Equal(victimPath) {
		t.Error("victim not restored to original path")
	}
	if f.Placed() {
		t.Error("admitted flow still placed after rollback")
	}
}

// strategyScenario: bottleneck u->v carries two victims of different sizes
// (300M and 600M) with independent detours; a 400 Mbps flow needs 300 Mbps
// freed. Density and Smallest migrate the 300M victim; Largest migrates
// the 600M one.
func strategyScenario(t *testing.T) (*netstate.Network, *topology.Graph, topology.LinkID, [2]*flow.Flow, [2]topology.NodeID) {
	t.Helper()
	g := topology.NewGraph()
	a := g.AddNode(topology.KindHost, "a")
	b := g.AddNode(topology.KindHost, "b")
	u := g.AddNode(topology.KindEdgeSwitch, "u")
	v := g.AddNode(topology.KindEdgeSwitch, "v")
	link := func(x, y topology.NodeID) topology.LinkID {
		id, err := g.AddLink(x, y, topology.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	link(a, u)
	uv := link(u, v)
	link(v, b)

	net := netstate.New(g, routing.NewBFSProvider(g, 0), routing.WidestFit{})
	var victims [2]*flow.Flow
	demands := []topology.Bandwidth{300 * topology.Mbps, 600 * topology.Mbps}
	for i, dem := range demands {
		src := g.AddNode(topology.KindHost, "src")
		dst := g.AddNode(topology.KindHost, "dst")
		su := link(src, u)
		vd := link(v, dst)
		// Detour: src -> w_i -> dst.
		w := g.AddNode(topology.KindEdgeSwitch, "w")
		link(src, w)
		link(w, dst)
		f, err := net.AddFlow(flow.Spec{Src: src, Dst: dst, Demand: dem})
		if err != nil {
			t.Fatal(err)
		}
		path, err := routing.NewPath(g, []topology.LinkID{su, uv, vd})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Place(f, path); err != nil {
			t.Fatal(err)
		}
		victims[i] = f
	}
	return net, g, uv, victims, [2]topology.NodeID{a, b}
}

func TestStrategies(t *testing.T) {
	tests := []struct {
		name       string
		strategy   Strategy
		wantVictim int // index into victims
		wantCost   topology.Bandwidth
	}{
		{"density prefers exact small cover", StrategyDensity, 0, 300 * topology.Mbps},
		{"smallest migrates 300M", StrategySmallest, 0, 300 * topology.Mbps},
		{"largest migrates 600M", StrategyLargest, 1, 600 * topology.Mbps},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			net, _, uv, victims, hosts := strategyScenario(t)
			p := NewPlanner(net, tt.strategy)
			f, err := net.AddFlow(flow.Spec{Src: hosts[0], Dst: hosts[1], Demand: 400 * topology.Mbps})
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Admit(f)
			if err != nil {
				t.Fatalf("Admit: %v", err)
			}
			if len(res.Moves) != 1 || res.Moves[0].Flow != victims[tt.wantVictim] {
				t.Fatalf("Moves = %v, want migration of victim %d", res.Moves, tt.wantVictim)
			}
			if res.MigratedTraffic != tt.wantCost {
				t.Errorf("cost = %v, want %v", res.MigratedTraffic, tt.wantCost)
			}
			if victims[tt.wantVictim].Path().Contains(uv) {
				t.Error("migrated victim still on bottleneck")
			}
		})
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{
		StrategyDensity:  "density",
		StrategySmallest: "smallest",
		StrategyLargest:  "largest",
		Strategy(9):      "Strategy(9)",
	} {
		if got := s.String(); got != want {
			t.Errorf("Strategy.String() = %q, want %q", got, want)
		}
	}
}

// TestAdmitMultipleVictims requires freeing more than one victim's worth of
// bandwidth: two 300M victims must both move for a 900 Mbps flow
// (residual 400, deficit 500).
func TestAdmitMultipleVictims(t *testing.T) {
	g := topology.NewGraph()
	a := g.AddNode(topology.KindHost, "a")
	b := g.AddNode(topology.KindHost, "b")
	u := g.AddNode(topology.KindEdgeSwitch, "u")
	v := g.AddNode(topology.KindEdgeSwitch, "v")
	link := func(x, y topology.NodeID) topology.LinkID {
		id, err := g.AddLink(x, y, topology.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	link(a, u)
	uv := link(u, v)
	link(v, b)
	net := netstate.New(g, routing.NewBFSProvider(g, 0), routing.WidestFit{})

	for i := 0; i < 2; i++ {
		src := g.AddNode(topology.KindHost, "s")
		dst := g.AddNode(topology.KindHost, "t")
		su := link(src, u)
		vd := link(v, dst)
		w := g.AddNode(topology.KindEdgeSwitch, "w")
		link(src, w)
		link(w, dst)
		f, err := net.AddFlow(flow.Spec{Src: src, Dst: dst, Demand: 300 * topology.Mbps})
		if err != nil {
			t.Fatal(err)
		}
		path, err := routing.NewPath(g, []topology.LinkID{su, uv, vd})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Place(f, path); err != nil {
			t.Fatal(err)
		}
	}

	p := NewPlanner(net, 0)
	f, err := net.AddFlow(flow.Spec{Src: a, Dst: b, Demand: 900 * topology.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Admit(f)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if len(res.Moves) != 2 {
		t.Fatalf("Moves = %d, want 2", len(res.Moves))
	}
	if res.MigratedTraffic != 600*topology.Mbps {
		t.Errorf("cost = %v, want 600Mbps", res.MigratedTraffic)
	}
	if got := g.Link(uv).Reserved(); got != 900*topology.Mbps {
		t.Errorf("bottleneck reserved = %v, want 900Mbps (new flow only)", got)
	}
}
