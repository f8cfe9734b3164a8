package routing

import (
	"testing"

	"netupdate/internal/topology"
)

// forkGraph builds two parallel 2-hop routes s->a->t and s->b->t and
// returns the graph and the two paths.
func forkGraph(t *testing.T) (g *topology.Graph, via [2]Path, linksA, linksB [2]topology.LinkID) {
	t.Helper()
	g = topology.NewGraph()
	s := g.AddNode(topology.KindEdgeSwitch, "s")
	a := g.AddNode(topology.KindAggSwitch, "a")
	b := g.AddNode(topology.KindAggSwitch, "b")
	dst := g.AddNode(topology.KindEdgeSwitch, "t")
	mk := func(mid topology.NodeID, out *[2]topology.LinkID) Path {
		l1, err := g.AddLink(s, mid, topology.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		l2, err := g.AddLink(mid, dst, topology.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		*out = [2]topology.LinkID{l1, l2}
		p, err := NewPath(g, []topology.LinkID{l1, l2})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	via[0] = mk(a, &linksA)
	via[1] = mk(b, &linksB)
	return g, via, linksA, linksB
}

// setOf returns the generic set of the given paths.
func setOf(paths []Path) PathSet { return PathSet{generic: &paths} }

func TestWidestFit(t *testing.T) {
	g, via, linksA, _ := forkGraph(t)
	var sel WidestFit

	// Load path A lightly; widest-fit must prefer the emptier path B.
	if err := g.Reserve(linksA[1], 300*topology.Mbps); err != nil {
		t.Fatal(err)
	}
	p, ok := sel.Select(g, setOf(via[:]), 100*topology.Mbps)
	if !ok || !p.Equal(via[1]) {
		t.Errorf("Select = %v,%v want widest (second) path", p, ok)
	}
	// Demand that only path B satisfies.
	p, ok = sel.Select(g, setOf(via[:]), 800*topology.Mbps)
	if !ok || !p.Equal(via[1]) {
		t.Errorf("Select(800Mbps) = %v,%v want second path", p, ok)
	}
	if _, ok := sel.Select(g, setOf(via[:]), 2*topology.Gbps); ok {
		t.Error("Select(2Gbps) = ok, want !ok")
	}
}

func TestWidestFitTieBreaksFirst(t *testing.T) {
	g, via, _, _ := forkGraph(t)
	var sel WidestFit
	p, ok := sel.Select(g, setOf(via[:]), topology.Mbps)
	if !ok || !p.Equal(via[0]) {
		t.Errorf("tied Select = %v,%v want first path", p, ok)
	}
}

func TestRandomFit(t *testing.T) {
	g, via, linksA, _ := forkGraph(t)
	sel := NewRandomFit(7)

	picked := make(map[int]int)
	for i := 0; i < 200; i++ {
		p, ok := sel.Select(g, setOf(via[:]), 100*topology.Mbps)
		if !ok {
			t.Fatal("Select failed with feasible candidates")
		}
		for j := range via {
			if p.Equal(via[j]) {
				picked[j]++
			}
		}
	}
	if picked[0] == 0 || picked[1] == 0 {
		t.Errorf("RandomFit never picked one of the paths: %v", picked)
	}

	// Only path B feasible -> always B.
	if err := g.Reserve(linksA[0], topology.Gbps); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p, ok := sel.Select(g, setOf(via[:]), 100*topology.Mbps)
		if !ok || !p.Equal(via[1]) {
			t.Fatalf("Select with one feasible = %v,%v", p, ok)
		}
	}
	if _, ok := sel.Select(g, setOf(via[:]), 2*topology.Gbps); ok {
		t.Error("Select(2Gbps) = ok, want !ok")
	}
}

func TestRandomFitDeterministicUnderSeed(t *testing.T) {
	g, via, _, _ := forkGraph(t)
	s1, s2 := NewRandomFit(99), NewRandomFit(99)
	for i := 0; i < 50; i++ {
		p1, ok1 := s1.Select(g, setOf(via[:]), topology.Mbps)
		p2, ok2 := s2.Select(g, setOf(via[:]), topology.Mbps)
		if ok1 != ok2 || !p1.Equal(p2) {
			t.Fatal("same-seed RandomFit selectors diverged")
		}
	}
}
