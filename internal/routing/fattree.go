package routing

import (
	"fmt"

	"netupdate/internal/topology"
)

// FatTreeProvider enumerates the ECMP path set between host pairs of a
// Fat-Tree: all equal-cost shortest paths. For a k-ary tree these are
//
//   - 1 path when both hosts share an edge switch,
//   - k/2 paths (one per aggregation switch) within a pod,
//   - (k/2)^2 paths (one per aggregation/core pair) across pods,
//
// in that order: aggregation-major, core-minor.
//
// Every such path is a host up-link, a middle segment that depends only on
// the ordered pair of edge switches, and a host down-link, so the provider
// keeps no per-host-pair state. It holds one table of middle segments per
// ordered edge-switch pair (k^6/4 link IDs in all, built eagerly by
// NewFatTreeProvider) and each host's access links, and Paths returns
// split-form paths into that table. The table is immutable once built, so
// Paths takes no lock, allocates nothing, and networks sharing one
// provider may query it from different goroutines.
type FatTreeProvider struct {
	ft    *topology.FatTree
	half  int
	edges int
	// access[2n] and access[2n+1] are host n's up- and down-link plus
	// one (Path's split encoding), indexed by NodeID; 0 for switches.
	access []int32
	// mid[off[a*edges+b]:off[a*edges+b+1]] holds the middle segments of
	// edge-switch ordinal a to b (pod*k/2 + edge) back to back, in path
	// order: none when a == b, 2 links per path within a pod, 4 across.
	mid []topology.LinkID
	off []int32
}

var _ Provider = (*FatTreeProvider)(nil)

// NewFatTreeProvider returns a Provider over the given Fat-Tree. It builds
// the edge-pair table in a fixed number of allocations: 0.47 MB at k = 8,
// 33 MB at k = 16.
func NewFatTreeProvider(ft *topology.FatTree) *FatTreeProvider {
	g := ft.Graph()
	k, half := ft.K, ft.K/2
	edges := k * half
	// link returns the link from -> to, panicking on a missing one —
	// impossible by Fat-Tree construction, so a panic indicates corruption.
	link := func(from, to topology.NodeID) topology.LinkID {
		l, ok := g.LinkBetween(from, to)
		if !ok {
			panic(fmt.Sprintf("routing: fat-tree missing link %v->%v", from, to))
		}
		return l
	}

	p := &FatTreeProvider{ft: ft, half: half, edges: edges, access: make([]int32, 2*g.NumNodes())}
	for _, host := range ft.Hosts() {
		e := ft.EdgeOfHost(host)
		p.access[2*host] = int32(link(host, e)) + 1
		p.access[2*host+1] = int32(link(e, host)) + 1
	}

	// Every hop of a middle segment is one of four families, looked up
	// once here: edge a -> agg i and agg i -> edge a of a's pod, and agg
	// i of a pod -> core (i, j) and back.
	hops := make([]topology.LinkID, 2*edges*half+2*k*half*half)
	toAgg, fromAgg := hops[:edges*half], hops[edges*half:2*edges*half]
	toCore, fromCore := hops[2*edges*half:2*edges*half+k*half*half], hops[2*edges*half+k*half*half:]
	for pod := 0; pod < k; pod++ {
		for i := 0; i < half; i++ {
			agg := ft.Agg(pod, i)
			edge := ft.Edge(pod, i)
			for x := 0; x < half; x++ {
				toAgg[(pod*half+i)*half+x] = link(edge, ft.Agg(pod, x))
				fromAgg[(pod*half+i)*half+x] = link(ft.Agg(pod, x), edge)
				toCore[(pod*half+i)*half+x] = link(agg, ft.Core(i, x))
				fromCore[(pod*half+i)*half+x] = link(ft.Core(i, x), agg)
			}
		}
	}

	// Within a pod each of the half-1 other edges takes half paths of 2
	// links; each of the edges-half edges of other pods takes half^2 of 4.
	perSrc := (half-1)*half*2 + (edges-half)*half*half*4
	p.mid = make([]topology.LinkID, 0, edges*perSrc)
	p.off = make([]int32, edges*edges+1)
	for a := 0; a < edges; a++ {
		for b := 0; b < edges; b++ {
			p.off[a*edges+b] = int32(len(p.mid))
			pa, pb := a/half, b/half
			switch {
			case a == b:
			case pa == pb:
				for i := 0; i < half; i++ {
					p.mid = append(p.mid, toAgg[a*half+i], fromAgg[b*half+i])
				}
			default:
				for i := 0; i < half; i++ {
					for j := 0; j < half; j++ {
						p.mid = append(p.mid, toAgg[a*half+i], toCore[(pa*half+i)*half+j],
							fromCore[(pb*half+i)*half+j], fromAgg[b*half+i])
					}
				}
			}
		}
	}
	p.off[edges*edges] = int32(len(p.mid))
	return p
}

// Paths implements Provider. Both endpoints must be hosts of the Fat-Tree;
// other node pairs (and equal src/dst) yield an empty set.
func (p *FatTreeProvider) Paths(src, dst topology.NodeID) PathSet {
	s, d := p.ft.HostIndex(src), p.ft.HostIndex(dst)
	if s < 0 || d < 0 || s == d {
		return PathSet{}
	}
	a, b := s/p.half, d/p.half
	n, hops := p.half*p.half, 4
	switch {
	case a == b:
		n, hops = 1, 0
	case a/p.half == b/p.half:
		n, hops = p.half, 2
	}
	set := PathSet{ft: p}
	set.acc.up, set.acc.down = p.access[2*src], p.access[2*dst+1]
	set.blk.off, set.blk.n, set.blk.hops = p.off[a*p.edges+b], int16(n), int16(hops)
	return set
}
