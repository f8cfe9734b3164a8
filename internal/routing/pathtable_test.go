package routing

import (
	"slices"
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

// ends returns a non-empty path's first and last node.
func ends(g *topology.Graph, p Path) (src, dst topology.NodeID) {
	return g.Link(p.Link(0)).From, g.Link(p.Link(p.Len() - 1)).To
}

// all returns the set's candidates as a slice, for tests that range.
func all(s PathSet) []Path {
	out := make([]Path, s.Len())
	for i := range out {
		out[i] = s.At(i)
	}
	return out
}

// checkPair holds one ordered host pair's path set to the chain walk
// (link for link, in order) and to the BFS enumerator (as a set).
func checkPair(t *testing.T, ft *topology.FatTree, prov *FatTreeProvider, bfs *BFSProvider, src, dst topology.NodeID) {
	t.Helper()
	got := all(prov.Paths(src, dst))
	want := chainWalk(t, ft, src, dst)
	if len(got) != len(want) {
		t.Fatalf("%v->%v: %d paths, chain walk %d", src, dst, len(got), len(want))
	}
	for i := range want {
		if s, d := ends(ft.Graph(), got[i]); !got[i].Equal(want[i]) || s != src || d != dst {
			t.Fatalf("%v->%v path %d = %v, chain walk %v", src, dst, i, got[i].Links(), want[i].Links())
		}
	}
	set := all(bfs.Paths(src, dst))
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
}

// TestPathTableMatchesOracles checks every ordered host pair at k = 4 and
// k = 8 against the chain walk and BFS, and that non-host or equal
// endpoints answer an empty set.
func TestPathTableMatchesOracles(t *testing.T) {
	for _, k := range []int{4, 8} {
		ft, prov := newFT(t, k)
		bfs := NewBFSProvider(ft.Graph(), 0)
		for _, src := range ft.Hosts() {
			for _, dst := range ft.Hosts() {
				if src != dst {
					checkPair(t, ft, prov, bfs, src, dst)
				}
			}
		}
	}

	ft8, prov8 := newFT(t, 8)
	h := ft8.Host(1, 2, 3)
	for _, pair := range [][2]topology.NodeID{
		{h, h},
		{ft8.Core(0, 0), h},
		{h, ft8.Agg(1, 0)},
		{ft8.Edge(1, 2), h},
		{topology.InvalidNode, h},
		{h, topology.NodeID(ft8.Graph().NumNodes())},
	} {
		if got := prov8.Paths(pair[0], pair[1]); got.Len() != 0 {
			t.Errorf("Paths(%v, %v) = %d paths, want none", pair[0], pair[1], got.Len())
		}
	}
}

// TestSplitPathsMatchGenericCopies: a split path and its NewPath copy are
// one path to every method — Equal both ways, and Len, Link, AppendLinks,
// Links, Contains, MinResidual and Format agree link by
// link — while two different candidates of one set are unequal in either
// form.
func TestSplitPathsMatchGenericCopies(t *testing.T) {
	ft, prov := newFT(t, 4)
	g := ft.Graph()
	// Load a few links so the residual methods have something to find.
	for l := 0; l < g.NumLinks(); l += 7 {
		if err := g.Reserve(topology.LinkID(l), topology.Bandwidth(l%5+1)*100*topology.Mbps); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range ft.Hosts() {
		for _, dst := range ft.Hosts() {
			set := prov.Paths(src, dst)
			copies := make([]Path, set.Len())
			for i := range copies {
				p := set.At(i)
				q, err := NewPath(g, p.Links())
				if err != nil {
					t.Fatal(err)
				}
				copies[i] = q
				if !p.Equal(q) || !q.Equal(p) {
					t.Fatalf("%v->%v path %d: split and generic forms unequal", src, dst, i)
				}
				if p.Len() != q.Len() || p.IsZero() {
					t.Fatalf("%v->%v path %d: Len/IsZero disagree", src, dst, i)
				}
				appended := p.AppendLinks(nil)
				links := p.Links()
				for j := 0; j < q.Len(); j++ {
					if p.Link(j) != q.Link(j) || appended[j] != q.Link(j) || links[j] != q.Link(j) {
						t.Fatalf("%v->%v path %d link %d: %v/%v/%v, generic %v",
							src, dst, i, j, p.Link(j), appended[j], links[j], q.Link(j))
					}
				}
				if len(appended) != q.Len() || len(links) != q.Len() {
					t.Fatalf("%v->%v path %d: AppendLinks %d, Links %d, want %d links",
						src, dst, i, len(appended), len(links), q.Len())
				}
				for l := 0; l < g.NumLinks(); l++ {
					if p.Contains(topology.LinkID(l)) != q.Contains(topology.LinkID(l)) {
						t.Fatalf("%v->%v path %d: Contains(%d) disagrees", src, dst, i, l)
					}
				}
				if p.MinResidual(g) != q.MinResidual(g) || p.Format(g) != q.Format(g) {
					t.Fatalf("%v->%v path %d: MinResidual or Format disagrees", src, dst, i)
				}
			}
			for i := range copies {
				for j := range copies {
					if i != j && (set.At(i).Equal(copies[j]) || copies[j].Equal(set.At(i)) || set.At(i).Equal(set.At(j))) {
						t.Fatalf("%v->%v: paths %d and %d compare equal", src, dst, i, j)
					}
				}
			}
		}
	}
}

// TestNewFatTreeProviderAllocsFixed: building a provider makes the same
// small number of allocations at every k — one table, never one per host
// or per pair.
func TestNewFatTreeProviderAllocsFixed(t *testing.T) {
	ks := []int{2, 4, 8, 12}
	allocs := make([]float64, len(ks))
	for i, k := range ks {
		ft, err := topology.NewFatTree(k, topology.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		allocs[i] = testing.AllocsPerRun(3, func() { NewFatTreeProvider(ft) })
	}
	for i := range ks {
		if allocs[i] != allocs[0] || allocs[i] > 5 {
			t.Fatalf("NewFatTreeProvider allocates %v times at k = %v, want one fixed count ≤ 5", allocs, ks)
		}
	}
}

// TestFatTreePathsConcurrent: goroutines querying one provider at once
// (networks sharing a provider may probe from different goroutines) all
// see the same path sets. Run under -race it also shows Paths writes
// nothing shared.
func TestFatTreePathsConcurrent(t *testing.T) {
	ft, prov := newFT(t, 4)
	hosts := ft.Hosts()
	const workers = 4
	got := make([][][]topology.LinkID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, src := range hosts {
				for _, dst := range hosts {
					set := prov.Paths(src, dst)
					for i := 0; i < set.Len(); i++ {
						got[w] = append(got[w], set.At(i).AppendLinks(nil))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if len(got[w]) != len(got[0]) {
			t.Fatalf("worker %d saw %d paths, worker 0 %d", w, len(got[w]), len(got[0]))
		}
		for i := range got[0] {
			if !slices.Equal(got[w][i], got[0][i]) {
				t.Fatalf("worker %d path %d = %v, worker 0 %v", w, i, got[w][i], got[0][i])
			}
		}
	}
}

// TestPathScanAllocFree pins the path layer's hot operations at zero
// allocations: a Paths query, and a full candidate scan as the planner
// runs it (At, MinResidual, Contains, Equal).
func TestPathScanAllocFree(t *testing.T) {
	ft, prov := newFT(t, 8)
	g := ft.Graph()
	src, dst := ft.Host(0, 0, 0), ft.Host(5, 2, 3)
	var sink PathSet
	if n := testing.AllocsPerRun(100, func() { sink = prov.Paths(src, dst) }); n != 0 {
		t.Errorf("Paths allocates %v times per call, want 0", n)
	}
	old := sink.At(3)
	probe := sink.At(9).Link(2)
	var best topology.Bandwidth
	scan := func() {
		set := prov.Paths(src, dst)
		for i := 0; i < set.Len(); i++ {
			q := set.At(i)
			if q.Equal(old) || q.Contains(probe) {
				continue
			}
			if r := q.MinResidual(g); r > best {
				best = r
			}
		}
	}
	if n := testing.AllocsPerRun(100, scan); n != 0 {
		t.Errorf("a candidate scan allocates %v times, want 0", n)
	}
	if best != topology.Gbps {
		t.Errorf("scan found best residual %v, want 1Gbps", best)
	}
}

// TestPathSetAtOutOfRange: At panics past the end of a split set of every
// shape, the one-path same-edge set included.
func TestPathSetAtOutOfRange(t *testing.T) {
	ft, prov := newFT(t, 4)
	for _, dst := range []topology.NodeID{ft.Host(0, 0, 1), ft.Host(0, 1, 0), ft.Host(2, 1, 1)} {
		set := prov.Paths(ft.Host(0, 0, 0), dst)
		for _, i := range []int{-1, set.Len()} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%d-path set: At(%d) did not panic", set.Len(), i)
					}
				}()
				set.At(i)
			}()
		}
	}
}
