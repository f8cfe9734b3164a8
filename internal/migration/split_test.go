package migration

import (
	"errors"
	"testing"

	"netupdate/internal/flow"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/topology"
)

// splitScenario: the 800 Mbps victim on the u->v bottleneck has two
// detours of only 500 Mbps capacity each — no single detour fits, but a
// two-way split does.
//
//	a -> u -> v -> b          (event flow route, 1 Gbps)
//	c -> u -> v -> d          (victim, 800 Mbps)
//	c -> w1 -> d, c -> w2 -> d (500 Mbps detours)
func splitScenario(t *testing.T) (*netstate.Network, *topology.Graph, *flow.Flow, topology.NodeID, topology.NodeID, topology.LinkID) {
	t.Helper()
	g := topology.NewGraph()
	a := g.AddNode(topology.KindHost, "a")
	b := g.AddNode(topology.KindHost, "b")
	c := g.AddNode(topology.KindHost, "c")
	d := g.AddNode(topology.KindHost, "d")
	u := g.AddNode(topology.KindEdgeSwitch, "u")
	v := g.AddNode(topology.KindEdgeSwitch, "v")
	link := func(x, y topology.NodeID, cap_ topology.Bandwidth) topology.LinkID {
		id, err := g.AddLink(x, y, cap_)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	link(a, u, topology.Gbps)
	uv := link(u, v, topology.Gbps)
	link(v, b, topology.Gbps)
	cu := link(c, u, 2*topology.Gbps) // fat access link: carries victim + split halves
	vd := link(v, d, topology.Gbps)
	for _, name := range []string{"w1", "w2"} {
		w := g.AddNode(topology.KindEdgeSwitch, name)
		link(c, w, 500*topology.Mbps)
		wd := link(w, d, 500*topology.Mbps)
		_ = wd
	}
	// c's access to w1/w2 is capped at 500M each, d's ingress from them too.

	net := netstate.New(g, routing.NewBFSProvider(g, 0), routing.WidestFit{})
	victim, err := net.AddFlow(flow.Spec{Src: c, Dst: d, Demand: 800 * topology.Mbps, Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	path, err := routing.NewPath(g, []topology.LinkID{cu, uv, vd})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Place(victim, path); err != nil {
		t.Fatal(err)
	}
	return net, g, victim, a, b, uv
}

func TestSplitDisabledFails(t *testing.T) {
	net, _, _, a, b, _ := splitScenario(t)
	p := NewPlanner(net, 0)
	f, err := net.AddFlow(flow.Spec{Src: a, Dst: b, Demand: 500 * topology.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Admit(f); !errors.Is(err, ErrCannotAdmit) {
		t.Fatalf("Admit without split error = %v, want ErrCannotAdmit", err)
	}
}

func TestSplitMigration(t *testing.T) {
	net, g, victim, a, b, uv := splitScenario(t)
	p := NewPlanner(net, 0)
	p.SetAllowSplit(true)
	f, err := net.AddFlow(flow.Spec{Src: a, Dst: b, Demand: 500 * topology.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Admit(f)
	if err != nil {
		t.Fatalf("Admit with split: %v", err)
	}
	if len(res.Moves) != 1 || !res.Moves[0].Split() {
		t.Fatalf("Moves = %+v, want one split move", res.Moves)
	}
	if res.MigratedTraffic != 800*topology.Mbps {
		t.Errorf("cost = %v, want 800Mbps", res.MigratedTraffic)
	}
	if victim.Placed() {
		t.Error("split victim still placed as one flow")
	}
	if !f.Placed() || !f.Path().Contains(uv) {
		t.Error("trigger flow not placed over cleared bottleneck")
	}
	// Two children carry the victim's demand off the bottleneck.
	var childDemand topology.Bandwidth
	children := 0
	for _, fl := range net.Registry().Placed() {
		if fl == f {
			continue
		}
		if fl.Src == victim.Src && fl.Dst == victim.Dst {
			children++
			childDemand += fl.Demand
			if fl.Path().Contains(uv) {
				t.Error("split child routed over the bottleneck")
			}
		}
	}
	if children != 2 || childDemand != 800*topology.Mbps {
		t.Errorf("children = %d carrying %v, want 2 carrying 800Mbps", children, childDemand)
	}
	// No link over capacity anywhere.
	for i := 0; i < g.NumLinks(); i++ {
		if l := g.Link(topology.LinkID(i)); l.Residual() < 0 {
			t.Errorf("link %v over capacity", l)
		}
	}
}

func TestSplitRollbackRestoresExactly(t *testing.T) {
	net, g, victim, a, b, _ := splitScenario(t)
	p := NewPlanner(net, 0)
	p.SetAllowSplit(true)

	before := make([]topology.Bandwidth, g.NumLinks())
	for i := range before {
		before[i] = g.Link(topology.LinkID(i)).Reserved()
	}
	regBefore := net.Registry().Len()
	victimPath := victim.Path()

	f, err := net.AddFlow(flow.Spec{Src: a, Dst: b, Demand: 500 * topology.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Admit(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Rollback(res); err != nil {
		t.Fatal(err)
	}
	if err := net.Remove(f); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if got := g.Link(topology.LinkID(i)).Reserved(); got != before[i] {
			t.Fatalf("link %d reserved = %v, want %v after rollback", i, got, before[i])
		}
	}
	if got := net.Registry().Len(); got != regBefore {
		t.Errorf("registry = %d flows, want %d (children removed)", got, regBefore)
	}
	if !victim.Placed() || !victim.Path().Equal(victimPath) {
		t.Error("victim not restored to original path")
	}
}

func TestSplitRefusesEventFlows(t *testing.T) {
	net, _, victim, a, b, _ := splitScenario(t)
	// Make the victim an event flow: splitting must be refused (the
	// simulator tracks event flows by identity for release bookkeeping).
	victim.Event = 3
	p := NewPlanner(net, 0)
	p.SetAllowSplit(true)
	f, err := net.AddFlow(flow.Spec{Src: a, Dst: b, Demand: 500 * topology.Mbps, Event: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Admit(f); !errors.Is(err, ErrCannotAdmit) {
		t.Fatalf("Admit error = %v, want ErrCannotAdmit (event victims unsplittable)", err)
	}
	if !victim.Placed() {
		t.Error("victim disturbed by refused split")
	}
}

// TestFailedSplitSpendsIDs: a split attempt whose second child does not
// fit spends the IDs of both children, as registering and removing them
// would, and the split that succeeds next gets the IDs after them.
//
//	a -> u -> v -> b                       (the trigger's only path)
//	c -> u -> v -> d, 400 Mbps             (first victim)
//	c -> s -> w1 -> d, c -> s -> w2 -> d   (detours sharing c->s, 300 Mbps)
//	e -> u -> v -> g, 500 Mbps             (second victim)
//	e -> y1 -> g, e -> y2 -> g             (disjoint 400 Mbps detours)
//
// The 500 Mbps trigger needs 400 Mbps freed on u->v. The first victim is
// the densest; its halves (300 + 100 Mbps) both need c->s, so the second
// child fails. The second victim splits 400 + 100 Mbps.
func TestFailedSplitSpendsIDs(t *testing.T) {
	g := topology.NewGraph()
	node := func(kind topology.NodeKind, name string) topology.NodeID { return g.AddNode(kind, name) }
	a, b := node(topology.KindHost, "a"), node(topology.KindHost, "b")
	c, d := node(topology.KindHost, "c"), node(topology.KindHost, "d")
	e, h := node(topology.KindHost, "e"), node(topology.KindHost, "g")
	u, v := node(topology.KindEdgeSwitch, "u"), node(topology.KindEdgeSwitch, "v")
	s := node(topology.KindEdgeSwitch, "s")
	link := func(x, y topology.NodeID, c topology.Bandwidth) topology.LinkID {
		id, err := g.AddLink(x, y, c)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	au, uv, vb := link(a, u, topology.Gbps), link(u, v, topology.Gbps), link(v, b, topology.Gbps)
	cu, vd, eu, vg := link(c, u, topology.Gbps), link(v, d, topology.Gbps), link(e, u, topology.Gbps), link(v, h, topology.Gbps)
	_, _ = au, vb
	link(c, s, 300*topology.Mbps)
	for _, name := range []string{"w1", "w2"} {
		w := node(topology.KindEdgeSwitch, name)
		link(s, w, topology.Gbps)
		link(w, d, topology.Gbps)
	}
	for _, name := range []string{"y1", "y2"} {
		y := node(topology.KindEdgeSwitch, name)
		link(e, y, 400*topology.Mbps)
		link(y, h, 400*topology.Mbps)
	}
	net := netstate.New(g, routing.NewBFSProvider(g, 0), routing.WidestFit{})
	place := func(src, dst topology.NodeID, demand topology.Bandwidth, links ...topology.LinkID) *flow.Flow {
		f, err := net.AddFlow(flow.Spec{Src: src, Dst: dst, Demand: demand, Size: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		path, err := routing.NewPath(g, links)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Place(f, path); err != nil {
			t.Fatal(err)
		}
		return f
	}
	first := place(c, d, 400*topology.Mbps, cu, uv, vd)
	second := place(e, h, 500*topology.Mbps, eu, uv, vg)

	p := NewPlanner(net, 0)
	p.SetAllowSplit(true)
	f, err := net.AddFlow(flow.Spec{Src: a, Dst: b, Demand: 500 * topology.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Admit(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Moves) != 1 || res.Moves[0].Flow != second || !res.Moves[0].Split() {
		t.Fatalf("moves = %+v, want one split of the second victim", res.Moves)
	}
	if !first.Placed() || !first.Path().Contains(uv) {
		t.Error("the first victim did not stay on its path")
	}
	// IDs: victims 0 and 1, the trigger 2, the failed split's children 3
	// and 4 (spent), the split's children 5 and 6.
	var children []flow.ID
	for _, fl := range net.Registry().Placed() {
		if fl.Src == e && fl != second {
			children = append(children, fl.ID)
		}
	}
	if len(children) != 2 || children[0] != f.ID+3 || children[1] != f.ID+4 {
		t.Errorf("split children got IDs %v, want [%d %d]", children, f.ID+3, f.ID+4)
	}
	if next := net.Registry().NextID(); next != f.ID+5 {
		t.Errorf("next ID %d, want %d", next, f.ID+5)
	}
}
