package routing

import (
	"testing"
	"testing/quick"

	"netupdate/internal/topology"
)

func TestKShortestOnDiamond(t *testing.T) {
	g, s, a, b, c, d, dst := diamondGraph(t)
	_ = a
	_ = b
	prov := NewKShortestProvider(g, 5)
	paths := all(prov.Paths(s, dst))
	// Two 2-hop paths plus the 3-hop detour via c->d.
	if len(paths) != 3 {
		t.Fatalf("paths = %d, want 3", len(paths))
	}
	if paths[0].Len() != 2 || paths[1].Len() != 2 || paths[2].Len() != 3 {
		t.Errorf("path lengths = %d,%d,%d want 2,2,3",
			paths[0].Len(), paths[1].Len(), paths[2].Len())
	}
	// The detour runs via c and d.
	detour := paths[2]
	if g.Link(detour.Links()[0]).To != c || g.Link(detour.Links()[1]).To != d {
		t.Errorf("detour = %s, want via c,d", detour.Format(g))
	}
}

func TestKShortestRespectsK(t *testing.T) {
	g, s, _, _, _, _, dst := diamondGraph(t)
	for _, k := range []int{1, 2, 3, 10} {
		paths := all(NewKShortestProvider(g, k).Paths(s, dst))
		want := k
		if want > 3 {
			want = 3
		}
		if len(paths) != want {
			t.Errorf("k=%d: paths = %d, want %d", k, len(paths), want)
		}
	}
	// k < 1 clamps to 1.
	if got := NewKShortestProvider(g, 0).Paths(s, dst).Len(); got != 1 {
		t.Errorf("k=0: paths = %d, want 1", got)
	}
}

func TestKShortestDegenerate(t *testing.T) {
	g := topology.NewGraph()
	x := g.AddNode(topology.KindHost, "x")
	y := g.AddNode(topology.KindHost, "y")
	prov := NewKShortestProvider(g, 3)
	if got := prov.Paths(x, y); got.Len() != 0 {
		t.Errorf("disconnected Paths = %d paths, want none", got.Len())
	}
	if got := prov.Paths(x, x); got.Len() != 0 {
		t.Errorf("self Paths = %d paths, want none", got.Len())
	}
}

func TestKShortestInvalidate(t *testing.T) {
	g := topology.NewGraph()
	x := g.AddNode(topology.KindHost, "x")
	m := g.AddNode(topology.KindEdgeSwitch, "m")
	y := g.AddNode(topology.KindHost, "y")
	if _, err := g.AddLink(x, m, topology.Gbps); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(m, y, topology.Gbps); err != nil {
		t.Fatal(err)
	}
	prov := NewKShortestProvider(g, 4)
	if got := prov.Paths(x, y).Len(); got != 1 {
		t.Fatalf("paths = %d, want 1", got)
	}
	n := g.AddNode(topology.KindEdgeSwitch, "n")
	if _, err := g.AddLink(x, n, topology.Gbps); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(n, y, topology.Gbps); err != nil {
		t.Fatal(err)
	}
	if got := prov.Paths(x, y).Len(); got != 1 {
		t.Fatalf("cached paths = %d, want 1", got)
	}
	prov.Invalidate()
	if got := prov.Paths(x, y).Len(); got != 2 {
		t.Errorf("paths after invalidate = %d, want 2", got)
	}
}

// TestKShortestSupersetOfBFS: the first paths returned must be exactly the
// shortest ones BFS finds (as a set), on random graphs.
func TestKShortestSupersetOfBFS(t *testing.T) {
	check := func(seed int64, srcRaw, dstRaw uint8) bool {
		g := randomGraph(seed, 9, 0.3)
		src := topology.NodeID(int(srcRaw) % 9)
		dst := topology.NodeID(int(dstRaw) % 9)
		if src == dst {
			return true
		}
		bfsPaths := all(NewBFSProvider(g, 0).Paths(src, dst))
		yenPaths := all(NewKShortestProvider(g, len(bfsPaths)+8).Paths(src, dst))
		if len(bfsPaths) == 0 {
			return len(yenPaths) == 0
		}
		if len(yenPaths) < len(bfsPaths) {
			return false
		}
		// Ordered by length.
		for i := 1; i < len(yenPaths); i++ {
			if yenPaths[i].Len() < yenPaths[i-1].Len() {
				return false
			}
		}
		// All distinct, loopless, correct endpoints.
		for i, p := range yenPaths {
			if s, d := ends(g, p); s != src || d != dst {
				return false
			}
			seen := map[topology.NodeID]bool{src: true}
			for _, l := range p.Links() {
				to := g.Link(l).To
				if seen[to] {
					return false
				}
				seen[to] = true
			}
			for j := i + 1; j < len(yenPaths); j++ {
				if p.Equal(yenPaths[j]) {
					return false
				}
			}
		}
		// Every BFS shortest path appears among the yen paths of equal
		// length.
		shortest := bfsPaths[0].Len()
		for _, bp := range bfsPaths {
			found := false
			for _, yp := range yenPaths {
				if yp.Len() > shortest {
					break
				}
				if yp.Equal(bp) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestKShortestOnFatTree: with k large enough, Yen recovers at least the
// full ECMP set.
func TestKShortestOnFatTree(t *testing.T) {
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	ecmp := all(NewFatTreeProvider(ft).Paths(ft.Host(0, 0, 0), ft.Host(1, 0, 0)))
	yen := all(NewKShortestProvider(ft.Graph(), 8).Paths(ft.Host(0, 0, 0), ft.Host(1, 0, 0)))
	if len(yen) < len(ecmp) {
		t.Fatalf("yen = %d paths, want >= %d", len(yen), len(ecmp))
	}
	for _, ep := range ecmp {
		found := false
		for _, yp := range yen {
			if yp.Equal(ep) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("ECMP path missing from yen set: %s", ep.Format(ft.Graph()))
		}
	}
}
