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
// Path sets are computed lazily and cached; the provider is therefore
// cheap to query repeatedly for the same pair, which the migration planner
// does heavily. The cache is guarded by a read-write lock so networks
// that share one provider and its warm cache (Network.Fork hands its
// copy the same one) may query it from different goroutines.
type FatTreeProvider struct {
	ft    *topology.FatTree
	mu    sync.RWMutex
	cache map[[2]topology.NodeID][]Path
}

var _ Provider = (*FatTreeProvider)(nil)

// NewFatTreeProvider returns a Provider over the given Fat-Tree.
func NewFatTreeProvider(ft *topology.FatTree) *FatTreeProvider {
	return &FatTreeProvider{
		ft:    ft,
		cache: make(map[[2]topology.NodeID][]Path),
	}
}

// Paths implements Provider. Both endpoints must be hosts of the Fat-Tree;
// other node pairs (and equal src/dst) yield an empty set.
func (p *FatTreeProvider) Paths(src, dst topology.NodeID) []Path {
	if src == dst {
		return nil
	}
	key := [2]topology.NodeID{src, dst}
	p.mu.RLock()
	paths, ok := p.cache[key]
	p.mu.RUnlock()
	if ok {
		return paths
	}
	paths = p.compute(src, dst)
	p.mu.Lock()
	// A concurrent probe may have computed the same pair; keep the first
	// entry so every caller sees one canonical slice.
	if prior, ok := p.cache[key]; ok {
		paths = prior
	} else {
		p.cache[key] = paths
	}
	p.mu.Unlock()
	return paths
}

// compute enumerates the ECMP set for one ordered host pair.
func (p *FatTreeProvider) compute(src, dst topology.NodeID) []Path {
	ft := p.ft
	g := ft.Graph()
	sPod, sEdge, _, ok := ft.HostAddr(src)
	if !ok {
		return nil
	}
	dPod, dEdge, _, ok := ft.HostAddr(dst)
	if !ok {
		return nil
	}
	half := ft.K / 2
	se := ft.Edge(sPod, sEdge)
	de := ft.Edge(dPod, dEdge)

	// chain builds a Path from a node walk, panicking on a missing link —
	// impossible by Fat-Tree construction, so a panic indicates corruption.
	chain := func(nodes ...topology.NodeID) Path {
		links := make([]topology.LinkID, 0, len(nodes)-1)
		for i := 1; i < len(nodes); i++ {
			l, ok := g.LinkBetween(nodes[i-1], nodes[i])
			if !ok {
				panic(fmt.Sprintf("routing: fat-tree missing link %v->%v", nodes[i-1], nodes[i]))
			}
			links = append(links, l)
		}
		path, err := NewPath(g, links)
		if err != nil {
			panic(fmt.Sprintf("routing: fat-tree path invalid: %v", err))
		}
		return path
	}

	switch {
	case se == de:
		return []Path{chain(src, se, dst)}
	case sPod == dPod:
		paths := make([]Path, 0, half)
		for a := 0; a < half; a++ {
			paths = append(paths, chain(src, se, ft.Agg(sPod, a), de, dst))
		}
		return paths
	default:
		paths := make([]Path, 0, half*half)
		for a := 0; a < half; a++ {
			for j := 0; j < half; j++ {
				core := ft.Core(a, j)
				paths = append(paths, chain(src, se, ft.Agg(sPod, a), core, ft.Agg(dPod, a), de, dst))
			}
		}
		return paths
	}
}
