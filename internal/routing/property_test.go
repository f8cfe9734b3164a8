package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"netupdate/internal/topology"
)

// randomGraph builds a random directed graph with n nodes and roughly
// density*n*(n-1) links, deterministically from seed.
func randomGraph(seed int64, n int, density float64) *topology.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := topology.NewGraph()
	ids := make([]topology.NodeID, n)
	for i := range ids {
		kind := topology.KindEdgeSwitch
		if i%3 == 0 {
			kind = topology.KindHost
		}
		ids[i] = g.AddNode(kind, "n")
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || rng.Float64() >= density {
				continue
			}
			if _, err := g.AddLink(ids[i], ids[j], topology.Gbps); err != nil {
				panic(err)
			}
		}
	}
	return g
}

// bfsDistance computes hop distances from src with a plain BFS, as an
// independent oracle for the provider.
func bfsDistance(g *topology.Graph, src topology.NodeID) []int {
	const unreached = -1
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = unreached
	}
	dist[src] = 0
	queue := []topology.NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, l := range g.Out(u) {
			v := g.Link(l).To
			if dist[v] == unreached {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// TestBFSProviderProperties checks, over random graphs, that every
// returned path (a) is loop-free, (b) has length equal to the true
// shortest distance, and (c) connects the requested endpoints; and that
// paths are returned exactly when the oracle says the pair is reachable.
func TestBFSProviderProperties(t *testing.T) {
	check := func(seed int64, nRaw, srcRaw, dstRaw uint8, densRaw uint8) bool {
		n := int(nRaw%12) + 2
		density := 0.05 + float64(densRaw%40)/100
		g := randomGraph(seed, n, density)
		src := topology.NodeID(int(srcRaw) % n)
		dst := topology.NodeID(int(dstRaw) % n)
		if src == dst {
			return true
		}
		prov := NewBFSProvider(g, 64)
		paths := prov.Paths(src, dst)
		dist := bfsDistance(g, src)

		if dist[dst] == -1 {
			return paths.Len() == 0
		}
		if paths.Len() == 0 {
			return false
		}
		for _, p := range all(paths) {
			if s, d := ends(g, p); s != src || d != dst {
				return false
			}
			if p.Len() != dist[dst] {
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
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestSelectorsAgreeOnFeasibility: over random graphs and demands, every
// selector either returns a feasible path or correctly reports none.
func TestSelectorsAgreeOnFeasibility(t *testing.T) {
	rf := NewRandomFit(3)
	check := func(seed int64, demandRaw uint16) bool {
		g := randomGraph(seed, 8, 0.3)
		prov := NewBFSProvider(g, 0)
		demand := topology.Bandwidth(demandRaw) * topology.Mbps
		var anyPair bool
		for src := 0; src < 8 && !anyPair; src++ {
			for dst := 0; dst < 8; dst++ {
				if src == dst {
					continue
				}
				paths := prov.Paths(topology.NodeID(src), topology.NodeID(dst))
				if paths.Len() == 0 {
					continue
				}
				anyPair = true
				feasible := false
				for _, p := range all(paths) {
					if p.Fits(g, demand) {
						feasible = true
						break
					}
				}
				for _, sel := range []Selector{WidestFit{}, rf} {
					p, ok := sel.Select(g, paths, demand)
					if ok != feasible {
						return false
					}
					if ok && !p.Fits(g, demand) {
						return false
					}
				}
				break
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
