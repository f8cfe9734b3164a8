package routing

import (
	"container/heap"
	"sync"

	"netupdate/internal/topology"
)

// KShortestProvider enumerates the K shortest loopless paths between node
// pairs of an arbitrary graph using Yen's algorithm (hop-count metric).
// Unlike BFSProvider it also returns paths longer than the shortest, which
// matters for migration on general topologies: a victim's detour off a
// congested link is often one hop longer than its current route, and a
// shortest-only candidate set would hide it.
type KShortestProvider struct {
	g *topology.Graph
	k int
	// cache memoizes per-pair path sets behind the pointer a PathSet
	// carries; lock-guarded so networks sharing the provider may query
	// it from different goroutines.
	mu    sync.RWMutex
	cache map[[2]topology.NodeID]*[]Path
}

var _ Provider = (*KShortestProvider)(nil)

// NewKShortestProvider returns a Provider yielding up to k loopless paths
// per pair (k >= 1), ordered by increasing hop count.
func NewKShortestProvider(g *topology.Graph, k int) *KShortestProvider {
	if k < 1 {
		k = 1
	}
	return &KShortestProvider{
		g:     g,
		k:     k,
		cache: make(map[[2]topology.NodeID]*[]Path),
	}
}

// Invalidate drops all cached path sets (call after structural changes).
func (p *KShortestProvider) Invalidate() {
	p.mu.Lock()
	p.cache = make(map[[2]topology.NodeID]*[]Path)
	p.mu.Unlock()
}

// Paths implements Provider.
func (p *KShortestProvider) Paths(src, dst topology.NodeID) PathSet {
	if src == dst {
		return PathSet{}
	}
	key := [2]topology.NodeID{src, dst}
	p.mu.RLock()
	paths, ok := p.cache[key]
	p.mu.RUnlock()
	if !ok {
		computed := p.compute(src, dst)
		p.mu.Lock()
		if paths, ok = p.cache[key]; !ok {
			paths = &computed
			p.cache[key] = paths
		}
		p.mu.Unlock()
	}
	return PathSet{generic: paths}
}

// pathCandidates is a min-heap of candidate paths ordered by length, with
// a deterministic link-sequence tie-break.
type pathCandidates []Path

var _ heap.Interface = (*pathCandidates)(nil)

func (h pathCandidates) Len() int { return len(h) }

func (h pathCandidates) Less(i, j int) bool {
	if h[i].Len() != h[j].Len() {
		return h[i].Len() < h[j].Len()
	}
	a, b := h[i].Links(), h[j].Links()
	for x := range a {
		if a[x] != b[x] {
			return a[x] < b[x]
		}
	}
	return false
}

func (h pathCandidates) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Push implements heap.Interface.
func (h *pathCandidates) Push(x any) {
	path, ok := x.(Path)
	if !ok {
		panic("routing: pathCandidates.Push: not a Path")
	}
	*h = append(*h, path)
}

// Pop implements heap.Interface.
func (h *pathCandidates) Pop() any {
	old := *h
	n := len(old)
	out := old[n-1]
	*h = old[:n-1]
	return out
}

// compute runs Yen's algorithm for one pair.
func (p *KShortestProvider) compute(src, dst topology.NodeID) []Path {
	first, ok := p.shortestPath(src, dst, nil, nil)
	if !ok {
		return nil
	}
	result := []Path{first}
	var candidates pathCandidates

	for len(result) < p.k {
		prev := result[len(result)-1]
		prevLinks := prev.Links()
		// For each spur node along the previous path, ban the link
		// prefixes shared with already-found paths and the root-path
		// nodes, then find a deviation.
		for i := 0; i < len(prevLinks); i++ {
			spur := p.g.Link(prevLinks[i]).From
			rootLinks := prevLinks[:i]

			bannedLinks := make(map[topology.LinkID]bool)
			for _, found := range result {
				fl := found.Links()
				if len(fl) > i && samePrefix(fl[:i], rootLinks) {
					bannedLinks[fl[i]] = true
				}
			}
			// Ban every root-path node except the spur itself, so the
			// deviation cannot loop back through the prefix.
			bannedNodes := make(map[topology.NodeID]bool)
			node := src
			for _, l := range rootLinks {
				bannedNodes[node] = true
				node = p.g.Link(l).To
			}
			delete(bannedNodes, spur)

			spurPath, ok := p.shortestPath(spur, dst, bannedLinks, bannedNodes)
			if !ok {
				continue
			}
			total := make([]topology.LinkID, 0, len(rootLinks)+spurPath.Len())
			total = append(total, rootLinks...)
			total = append(total, spurPath.Links()...)
			candidate, err := NewPath(p.g, total)
			if err != nil {
				continue
			}
			if !containsPath(result, candidate) && !containsPath(candidates, candidate) {
				heap.Push(&candidates, candidate)
			}
		}
		if candidates.Len() == 0 {
			break
		}
		next := heap.Pop(&candidates).(Path)
		result = append(result, next)
	}
	return result
}

// shortestPath is BFS from src to dst avoiding banned links and nodes.
func (p *KShortestProvider) shortestPath(src, dst topology.NodeID, bannedLinks map[topology.LinkID]bool, bannedNodes map[topology.NodeID]bool) (Path, bool) {
	g := p.g
	const unvisited = -1
	prev := make([]topology.LinkID, g.NumNodes())
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = unvisited
		prev[i] = topology.InvalidLink
	}
	dist[src] = 0
	queue := []topology.NodeID{src}
	for len(queue) > 0 && dist[dst] == unvisited {
		u := queue[0]
		queue = queue[1:]
		for _, lid := range g.Out(u) {
			if bannedLinks[lid] {
				continue
			}
			v := g.Link(lid).To
			if bannedNodes[v] {
				continue
			}
			if dist[v] == unvisited {
				dist[v] = dist[u] + 1
				prev[v] = lid
				queue = append(queue, v)
			}
		}
	}
	if dist[dst] == unvisited {
		return Path{}, false
	}
	links := make([]topology.LinkID, dist[dst])
	node := dst
	for i := dist[dst] - 1; i >= 0; i-- {
		links[i] = prev[node]
		node = g.Link(prev[node]).From
	}
	path, err := NewPath(g, links)
	if err != nil {
		panic("routing: yen shortest produced invalid path: " + err.Error())
	}
	return path, true
}

// samePrefix reports whether two link sequences are identical.
func samePrefix(a, b []topology.LinkID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// containsPath reports whether the set already holds an equal path.
func containsPath(set []Path, p Path) bool {
	for _, q := range set {
		if q.Equal(p) {
			return true
		}
	}
	return false
}
