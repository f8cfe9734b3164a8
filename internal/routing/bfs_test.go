package routing

import (
	"testing"

	"netupdate/internal/topology"
)

// diamondGraph builds s -> {a,b} -> t plus a longer detour s -> c -> d -> t.
func diamondGraph(t *testing.T) (g *topology.Graph, s, a, b, c, d, dst topology.NodeID) {
	t.Helper()
	g = topology.NewGraph()
	s = g.AddNode(topology.KindEdgeSwitch, "s")
	a = g.AddNode(topology.KindAggSwitch, "a")
	b = g.AddNode(topology.KindAggSwitch, "b")
	c = g.AddNode(topology.KindAggSwitch, "c")
	d = g.AddNode(topology.KindAggSwitch, "d")
	dst = g.AddNode(topology.KindEdgeSwitch, "t")
	for _, pair := range [][2]topology.NodeID{{s, a}, {s, b}, {a, dst}, {b, dst}, {s, c}, {c, d}, {d, dst}} {
		if _, err := g.AddLink(pair[0], pair[1], topology.Gbps); err != nil {
			t.Fatal(err)
		}
	}
	return g, s, a, b, c, d, dst
}

func TestBFSProviderShortestOnly(t *testing.T) {
	g, s, a, b, _, _, dst := diamondGraph(t)
	prov := NewBFSProvider(g, 0)
	paths := prov.Paths(s, dst)
	if paths.Len() != 2 {
		t.Fatalf("got %d paths, want 2 (shortest only)", paths.Len())
	}
	mids := make(map[topology.NodeID]bool)
	for _, p := range all(paths) {
		if p.Len() != 2 {
			t.Errorf("path %s has %d hops, want 2", p.Format(g), p.Len())
		}
		mids[g.Link(p.Links()[0]).To] = true
	}
	if !mids[a] || !mids[b] {
		t.Errorf("middle nodes = %v, want {a,b}", mids)
	}
}

func TestBFSProviderMaxPaths(t *testing.T) {
	g, s, _, _, _, _, dst := diamondGraph(t)
	prov := NewBFSProvider(g, 1)
	if got := prov.Paths(s, dst).Len(); got != 1 {
		t.Errorf("capped path count = %d, want 1", got)
	}
}

func TestBFSProviderUnreachable(t *testing.T) {
	g := topology.NewGraph()
	a := g.AddNode(topology.KindHost, "a")
	b := g.AddNode(topology.KindHost, "b")
	prov := NewBFSProvider(g, 0)
	if got := prov.Paths(a, b); got.Len() != 0 {
		t.Errorf("Paths over disconnected graph = %d paths, want none", got.Len())
	}
	if got := prov.Paths(a, a); got.Len() != 0 {
		t.Errorf("Paths(a,a) = %d paths, want none", got.Len())
	}
}

func TestBFSProviderDirectedness(t *testing.T) {
	g := topology.NewGraph()
	a := g.AddNode(topology.KindHost, "a")
	b := g.AddNode(topology.KindHost, "b")
	if _, err := g.AddLink(a, b, topology.Gbps); err != nil {
		t.Fatal(err)
	}
	prov := NewBFSProvider(g, 0)
	if got := prov.Paths(a, b).Len(); got != 1 {
		t.Errorf("forward paths = %d, want 1", got)
	}
	if got := prov.Paths(b, a); got.Len() != 0 {
		t.Errorf("reverse paths = %d paths, want none (directed link)", got.Len())
	}
}

func TestBFSProviderInvalidate(t *testing.T) {
	g := topology.NewGraph()
	a := g.AddNode(topology.KindHost, "a")
	b := g.AddNode(topology.KindEdgeSwitch, "b")
	c := g.AddNode(topology.KindHost, "c")
	if _, err := g.AddLink(a, b, topology.Gbps); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(b, c, topology.Gbps); err != nil {
		t.Fatal(err)
	}
	prov := NewBFSProvider(g, 0)
	if got := prov.Paths(a, c).Len(); got != 1 {
		t.Fatalf("paths = %d, want 1", got)
	}
	// Add a parallel two-hop route via a new switch; the cache hides it
	// until invalidated.
	d := g.AddNode(topology.KindEdgeSwitch, "d")
	if _, err := g.AddLink(a, d, topology.Gbps); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(d, c, topology.Gbps); err != nil {
		t.Fatal(err)
	}
	if got := prov.Paths(a, c).Len(); got != 1 {
		t.Fatalf("cached paths = %d, want 1", got)
	}
	prov.Invalidate()
	if got := prov.Paths(a, c).Len(); got != 2 {
		t.Errorf("paths after Invalidate = %d, want 2", got)
	}
}

// TestBFSMatchesFatTreeEnumeration cross-checks the two providers: on a
// Fat-Tree they must produce identical path sets (as sets).
func TestBFSMatchesFatTreeEnumeration(t *testing.T) {
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	ftProv := NewFatTreeProvider(ft)
	bfsProv := NewBFSProvider(ft.Graph(), 0)

	pairs := [][2]topology.NodeID{
		{ft.Host(0, 0, 0), ft.Host(0, 0, 1)},
		{ft.Host(0, 0, 0), ft.Host(0, 1, 1)},
		{ft.Host(0, 0, 0), ft.Host(2, 1, 0)},
		{ft.Host(3, 1, 1), ft.Host(1, 0, 0)},
	}
	for _, pair := range pairs {
		a := ftProv.Paths(pair[0], pair[1])
		b := bfsProv.Paths(pair[0], pair[1])
		if a.Len() != b.Len() {
			t.Fatalf("pair %v: fat-tree %d paths, BFS %d", pair, a.Len(), b.Len())
		}
		for _, pa := range all(a) {
			found := false
			for _, pb := range all(b) {
				if pa.Equal(pb) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("pair %v: fat-tree path %s missing from BFS set", pair, pa.Format(ft.Graph()))
			}
		}
	}
}
