package routing

import (
	"fmt"
	"sync"

	"netupdate/internal/topology"
)

// FatTreeProvider enumerates the ECMP path set between host pairs of a
// Fat-Tree: all equal-cost shortest paths. For a k-ary tree these are
//
//   - 1 path when both hosts share an edge switch,
//   - k/2 paths (one per aggregation switch) within a pod,
//   - (k/2)^2 paths (one per aggregation/core pair) across pods.
//
// Path sets are computed lazily and cached, indexed by host ordinal
// (topology.FatTree.HostIndex): index[s][d] is one plus the position of
// the pair's path set in sets, 0 while it is not computed. The row table
// and each row are allocated by the first query that needs them, so a
// fresh provider holds nothing per host. The provider is therefore cheap
// to query repeatedly for the same pair, which the migration planner
// does heavily. The cache is guarded by a read-write lock so networks
// that share one provider and its warm cache (Network.Fork hands its
// copy the same one) may query it from different goroutines.
type FatTreeProvider struct {
	ft    *topology.FatTree
	mu    sync.RWMutex
	index [][]int32
	sets  [][]Path
}

var _ Provider = (*FatTreeProvider)(nil)

// NewFatTreeProvider returns a Provider over the given Fat-Tree.
func NewFatTreeProvider(ft *topology.FatTree) *FatTreeProvider {
	return &FatTreeProvider{ft: ft}
}

// Paths implements Provider. Both endpoints must be hosts of the Fat-Tree;
// other node pairs (and equal src/dst) yield an empty set. Every call for
// one pair returns the same slice.
func (p *FatTreeProvider) Paths(src, dst topology.NodeID) []Path {
	s, d := p.ft.HostIndex(src), p.ft.HostIndex(dst)
	if s < 0 || d < 0 || s == d {
		return nil
	}
	p.mu.RLock()
	paths := p.cached(s, d)
	p.mu.RUnlock()
	if paths != nil {
		return paths
	}
	paths = p.compute(src, dst)
	p.mu.Lock()
	defer p.mu.Unlock()
	// A concurrent probe may have computed the same pair; keep the first
	// entry so every caller sees one canonical slice.
	if prior := p.cached(s, d); prior != nil {
		return prior
	}
	if p.index == nil {
		p.index = make([][]int32, p.ft.NumHosts())
	}
	if p.index[s] == nil {
		p.index[s] = make([]int32, p.ft.NumHosts())
	}
	p.sets = append(p.sets, paths)
	p.index[s][d] = int32(len(p.sets))
	return paths
}

// cached returns the pair's path set, nil while it is not computed (a
// computed set between two hosts is never empty). The caller holds mu.
func (p *FatTreeProvider) cached(s, d int) []Path {
	if p.index == nil || p.index[s] == nil || p.index[s][d] == 0 {
		return nil
	}
	return p.sets[p.index[s][d]-1]
}

// compute enumerates the ECMP set for one ordered pair of distinct hosts.
// The set's paths share one backing array of links, and each hop shared
// by several paths is looked up once.
func (p *FatTreeProvider) compute(src, dst topology.NodeID) []Path {
	ft := p.ft
	g := ft.Graph()
	sPod, sEdge, _, _ := ft.HostAddr(src)
	dPod, dEdge, _, _ := ft.HostAddr(dst)
	half := ft.K / 2
	se := ft.Edge(sPod, sEdge)
	de := ft.Edge(dPod, dEdge)

	// link returns the link from -> to, panicking on a missing one —
	// impossible by Fat-Tree construction, so a panic indicates corruption.
	link := func(from, to topology.NodeID) topology.LinkID {
		l, ok := g.LinkBetween(from, to)
		if !ok {
			panic(fmt.Sprintf("routing: fat-tree missing link %v->%v", from, to))
		}
		return l
	}
	n, hops := half*half, 6
	switch {
	case se == de:
		n, hops = 1, 2
	case sPod == dPod:
		n, hops = half, 4
	}
	paths := make([]Path, 0, n)
	links := make([]topology.LinkID, 0, n*hops)
	// walk appends one path's links and closes them into a Path. links
	// never outgrows its capacity, so earlier paths keep their sub-slices.
	walk := func(hop ...topology.LinkID) {
		start := len(links)
		links = append(links, hop...)
		path, err := pathOf(g, links[start:len(links):len(links)])
		if err != nil {
			panic(fmt.Sprintf("routing: fat-tree path invalid: %v", err))
		}
		paths = append(paths, path)
	}

	up, down := link(src, se), link(de, dst)
	switch {
	case se == de:
		walk(up, down)
	case sPod == dPod:
		for a := 0; a < half; a++ {
			agg := ft.Agg(sPod, a)
			walk(up, link(se, agg), link(agg, de), down)
		}
	default:
		for a := 0; a < half; a++ {
			sAgg, dAgg := ft.Agg(sPod, a), ft.Agg(dPod, a)
			toAgg, fromAgg := link(se, sAgg), link(dAgg, de)
			for j := 0; j < half; j++ {
				core := ft.Core(a, j)
				walk(up, toAgg, link(sAgg, core), link(core, dAgg), fromAgg, down)
			}
		}
	}
	return paths
}
