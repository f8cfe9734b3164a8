package routing

import (
	"math/rand"
	"sync"
	"testing"

	"netupdate/internal/topology"
)

// chainWalk is the reference ECMP enumeration: every path built from its
// node walk by looking each hop up with LinkBetween, in the provider's
// order (aggregation, then core within the aggregation's group).
func chainWalk(t *testing.T, ft *topology.FatTree, src, dst topology.NodeID) []Path {
	t.Helper()
	g := ft.Graph()
	sPod, sEdge, _, _ := ft.HostAddr(src)
	dPod, dEdge, _, _ := ft.HostAddr(dst)
	se, de := ft.Edge(sPod, sEdge), ft.Edge(dPod, dEdge)
	chain := func(nodes ...topology.NodeID) Path {
		var links []topology.LinkID
		for i := 1; i < len(nodes); i++ {
			l, ok := g.LinkBetween(nodes[i-1], nodes[i])
			if !ok {
				t.Fatalf("no link %v->%v", nodes[i-1], nodes[i])
			}
			links = append(links, l)
		}
		p, err := NewPath(g, links)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	half := ft.K / 2
	var out []Path
	switch {
	case se == de:
		out = append(out, chain(src, se, dst))
	case sPod == dPod:
		for a := 0; a < half; a++ {
			out = append(out, chain(src, se, ft.Agg(sPod, a), de, dst))
		}
	default:
		for a := 0; a < half; a++ {
			for j := 0; j < half; j++ {
				out = append(out, chain(src, se, ft.Agg(sPod, a), ft.Core(a, j), ft.Agg(dPod, a), de, dst))
			}
		}
	}
	return out
}

// checkPair holds one ordered host pair's path set to the chain walk
// (link for link), to the BFS enumerator (as a set), and to the cache
// contract (a repeated call returns the same backing arrays).
func checkPair(t *testing.T, ft *topology.FatTree, prov *FatTreeProvider, bfs *BFSProvider, src, dst topology.NodeID) {
	t.Helper()
	got := prov.Paths(src, dst)
	want := chainWalk(t, ft, src, dst)
	if len(got) != len(want) {
		t.Fatalf("%v->%v: %d paths, chain walk %d", src, dst, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) || got[i].Src() != src || got[i].Dst() != dst {
			t.Fatalf("%v->%v path %d = %v, chain walk %v", src, dst, i, got[i].Links(), want[i].Links())
		}
	}
	set := bfs.Paths(src, dst)
	if len(set) != len(got) {
		t.Fatalf("%v->%v: %d paths, BFS %d", src, dst, len(got), len(set))
	}
	for _, p := range got {
		found := false
		for _, q := range set {
			found = found || p.Equal(q)
		}
		if !found {
			t.Fatalf("%v->%v: path %v missing from the BFS set", src, dst, p.Links())
		}
	}
	again := prov.Paths(src, dst)
	if &again[0] != &got[0] {
		t.Fatalf("%v->%v: repeated call returned a new path slice", src, dst)
	}
	for i := range got {
		if &again[i].Links()[0] != &got[i].Links()[0] {
			t.Fatalf("%v->%v: repeated call rebuilt path %d", src, dst, i)
		}
	}
}

// TestPathTableMatchesOracles checks every ordered host pair at k = 4 and
// a seeded sample at k = 8 against the chain walk and BFS, and that
// non-host or equal endpoints answer nil.
func TestPathTableMatchesOracles(t *testing.T) {
	ft, prov := newFT(t, 4)
	bfs := NewBFSProvider(ft.Graph(), 0)
	for _, src := range ft.Hosts() {
		for _, dst := range ft.Hosts() {
			if src != dst {
				checkPair(t, ft, prov, bfs, src, dst)
			}
		}
	}

	ft8, prov8 := newFT(t, 8)
	bfs8 := NewBFSProvider(ft8.Graph(), 0)
	hosts := ft8.Hosts()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
		if src != dst {
			checkPair(t, ft8, prov8, bfs8, src, dst)
		}
	}

	h := ft8.Host(1, 2, 3)
	for _, pair := range [][2]topology.NodeID{
		{h, h},
		{ft8.Core(0, 0), h},
		{h, ft8.Agg(1, 0)},
		{ft8.Edge(1, 2), h},
		{topology.InvalidNode, h},
		{h, topology.NodeID(ft8.Graph().NumNodes())},
	} {
		if got := prov8.Paths(pair[0], pair[1]); got != nil {
			t.Errorf("Paths(%v, %v) = %v, want nil", pair[0], pair[1], got)
		}
	}
}

// TestNewFatTreeProviderIsFlat: a fresh provider holds no per-host state —
// the cache is built by the queries that need it — so building one costs
// the same at any fabric size.
func TestNewFatTreeProviderIsFlat(t *testing.T) {
	var allocs [2]float64
	for i, k := range []int{4, 16} {
		ft, err := topology.NewFatTree(k, topology.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		var p *FatTreeProvider
		allocs[i] = testing.AllocsPerRun(50, func() { p = NewFatTreeProvider(ft) })
		if p.index != nil || p.sets != nil {
			t.Errorf("k=%d: a fresh provider holds a path table", k)
		}
	}
	if allocs[0] != allocs[1] || allocs[1] > 1 {
		t.Errorf("NewFatTreeProvider allocates %v (k=4) and %v (k=16) times, want one each", allocs[0], allocs[1])
	}
}

// TestPathTableConcurrentFill: goroutines filling one fresh provider at
// once (networks sharing a provider may probe from different goroutines)
// all see one canonical path set per pair.
func TestPathTableConcurrentFill(t *testing.T) {
	ft, prov := newFT(t, 4)
	hosts := ft.Hosts()
	const workers = 4
	got := make([][]*Path, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks the pairs from a different offset, so
			// first queries of a pair race across workers.
			for i := range hosts {
				src := hosts[(i+w*len(hosts)/workers)%len(hosts)]
				for _, dst := range hosts {
					if paths := prov.Paths(src, dst); paths != nil {
						got[w] = append(got[w], &paths[0])
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			first := &prov.Paths(src, dst)[0]
			for w := range got {
				found := false
				for _, p := range got[w] {
					found = found || p == first
				}
				if !found {
					t.Fatalf("worker %d never saw the canonical set of %v->%v", w, src, dst)
				}
			}
		}
	}
}
