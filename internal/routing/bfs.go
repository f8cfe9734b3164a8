package routing

import (
	"sync"

	"netupdate/internal/topology"
)

// BFSProvider enumerates all shortest paths between node pairs of an
// arbitrary graph, up to a configurable cap per pair. It serves as the
// general-graph fallback for topologies without a closed-form ECMP set
// (e.g. the degraded graphs of the link-failure example). The cache is
// lock-guarded so networks sharing the provider may query it from
// different goroutines.
type BFSProvider struct {
	g *topology.Graph
	// maxPaths caps the number of shortest paths enumerated per pair to
	// bound memory on dense graphs. 0 means no cap.
	maxPaths int
	mu       sync.RWMutex
	// cache holds each pair's paths behind the pointer a PathSet carries.
	cache map[[2]topology.NodeID]*[]Path
}

var _ Provider = (*BFSProvider)(nil)

// NewBFSProvider returns a shortest-path Provider over g. maxPaths caps
// the paths returned per pair (0 = unlimited).
func NewBFSProvider(g *topology.Graph, maxPaths int) *BFSProvider {
	return &BFSProvider{
		g:        g,
		maxPaths: maxPaths,
		cache:    make(map[[2]topology.NodeID]*[]Path),
	}
}

// Invalidate drops all cached path sets. Call after mutating the graph's
// structure (adding nodes or links); bandwidth changes need no invalidation.
func (p *BFSProvider) Invalidate() {
	p.mu.Lock()
	p.cache = make(map[[2]topology.NodeID]*[]Path)
	p.mu.Unlock()
}

// Paths implements Provider, returning every shortest src->dst path (up to
// the configured cap) in a deterministic order.
func (p *BFSProvider) Paths(src, dst topology.NodeID) PathSet {
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

func (p *BFSProvider) compute(src, dst topology.NodeID) []Path {
	g := p.g
	n := g.NumNodes()
	// Standard BFS layering: dist[v] is the hop distance from src, and
	// preds[v] lists every link that reaches v on a shortest path.
	const unvisited = -1
	dist := make([]int, n)
	for i := range dist {
		dist[i] = unvisited
	}
	preds := make([][]topology.LinkID, n)
	dist[src] = 0
	queue := []topology.NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == dst {
			continue // no need to expand past the target layer via dst
		}
		for _, lid := range g.Out(u) {
			v := g.Link(lid).To
			switch {
			case dist[v] == unvisited:
				dist[v] = dist[u] + 1
				preds[v] = append(preds[v], lid)
				queue = append(queue, v)
			case dist[v] == dist[u]+1:
				preds[v] = append(preds[v], lid)
			}
		}
	}
	if dist[dst] == unvisited {
		return nil
	}

	// Walk the predecessor DAG backwards from dst, materializing every
	// shortest path until the cap is hit.
	var paths []Path
	var stack []topology.LinkID
	var walk func(v topology.NodeID)
	walk = func(v topology.NodeID) {
		if p.maxPaths > 0 && len(paths) >= p.maxPaths {
			return
		}
		if v == src {
			links := make([]topology.LinkID, len(stack))
			for i, l := range stack {
				links[len(stack)-1-i] = l // stack is dst->src; reverse it
			}
			path, err := NewPath(g, links)
			if err != nil {
				// preds construction guarantees chained links; an error
				// here means the graph mutated mid-walk.
				panic("routing: BFS produced invalid path: " + err.Error())
			}
			paths = append(paths, path)
			return
		}
		for _, lid := range preds[v] {
			stack = append(stack, lid)
			walk(g.Link(lid).From)
			stack = stack[:len(stack)-1]
		}
	}
	walk(dst)
	return paths
}
