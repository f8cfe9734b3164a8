package migration

import (
	"math/rand"
	"testing"

	"netupdate/internal/flow"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/topology"
)

// scanDetourable is detourable as it was before pinned victims were ruled
// out by their endpoints: a scan of every candidate path, one Eval each.
// It is the oracle the shortcut must agree with, verdict and Evals alike.
func scanDetourable(p *Planner, victim *flow.Flow, congested []topology.LinkID, evals *int) bool {
	old := victim.Path()
	candidates := p.net.Candidates(victim)
scan:
	for i := 0; i < candidates.Len(); i++ {
		*evals++
		q := candidates.At(i)
		if q.Equal(old) {
			continue
		}
		for _, l := range congested {
			if q.Contains(l) {
				continue scan
			}
		}
		return true
	}
	return false
}

// transitGraph is a directed graph whose degree-1 nodes are crossed by
// flows that neither start nor end there:
//
//	a -> x -> y -> c
//	b -> x    y -> d
//	a -> z -> w -> d
//
// x has in-degree 2 and out-degree 1, y in-degree 1 and out-degree 2, so
// x->y pins a flow sourced at x or destined to y, but an a->d flow
// routed over it transits both and can still detour through z and w.
func transitGraph(t *testing.T) (*netstate.Network, []topology.NodeID) {
	t.Helper()
	g := topology.NewGraph()
	var nodes []topology.NodeID
	node := func(name string) topology.NodeID {
		n := g.AddNode(topology.KindEdgeSwitch, name)
		nodes = append(nodes, n)
		return n
	}
	a, b, c, d := node("a"), node("b"), node("c"), node("d")
	x, y, z, w := node("x"), node("y"), node("z"), node("w")
	for _, l := range [][2]topology.NodeID{
		{a, x}, {b, x}, {x, y}, {y, c}, {y, d}, {a, z}, {z, w}, {w, d},
	} {
		if _, err := g.AddLink(l[0], l[1], topology.Gbps); err != nil {
			t.Fatal(err)
		}
	}
	return netstate.New(g, routing.NewBFSProvider(g, 0), routing.NewRandomFit(5)), nodes
}

// load places random flows between random endpoints until the fabric
// reaches util or the attempts run out; unroutable or unfitting flows are
// dropped.
func load(t *testing.T, net *netstate.Network, ends []topology.NodeID, rng *rand.Rand, util float64) {
	t.Helper()
	for i := 0; i < 20000 && net.Utilization() < util; i++ {
		src, dst := ends[rng.Intn(len(ends))], ends[rng.Intn(len(ends))]
		if src == dst {
			continue
		}
		f, err := net.AddFlow(flow.Spec{
			Src: src, Dst: dst,
			Demand: topology.Bandwidth(10+rng.Intn(190)) * topology.Mbps,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.PlaceBest(f); err != nil {
			if err := net.Remove(f); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPinnedVictimsMatchFullScan holds the pinned-victim shortcut of
// detourable to the full candidate scan it replaces: for every flow across
// a random subset of a random path's links, on a fat-tree, a leaf-spine
// and a graph whose degree-1 switches carry transit flows, the verdict and
// the Evals charged must equal the scan's.
func TestPinnedVictimsMatchFullScan(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) (*netstate.Network, []topology.NodeID)
		util  float64
	}{
		{"fat-tree k=4", func(t *testing.T) (*netstate.Network, []topology.NodeID) {
			ft, err := topology.NewFatTree(4, topology.Gbps)
			if err != nil {
				t.Fatal(err)
			}
			return netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(7)), ft.Hosts()
		}, 0.8},
		{"leaf-spine", func(t *testing.T) (*netstate.Network, []topology.NodeID) {
			ls, err := topology.NewLeafSpine(4, 2, 3, topology.Gbps)
			if err != nil {
				t.Fatal(err)
			}
			g := ls.Graph()
			return netstate.New(g, routing.NewKShortestProvider(g, 6), routing.NewRandomFit(3)), ls.Hosts()
		}, 0.6},
		{"transit", transitGraph, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, ends := tc.build(t)
			rng := rand.New(rand.NewSource(11))
			load(t, net, ends, rng, tc.util)
			g := net.Graph()
			p := NewPlanner(net, 0)

			var pinned, detours, transits int
			for trial := 0; trial < 400; trial++ {
				src, dst := ends[rng.Intn(len(ends))], ends[rng.Intn(len(ends))]
				paths := net.Provider().Paths(src, dst)
				if src == dst || paths.Len() == 0 {
					continue
				}
				links := paths.At(rng.Intn(paths.Len())).Links()
				var congested []topology.LinkID
				for len(congested) == 0 {
					for _, l := range links {
						if rng.Intn(2) == 0 {
							congested = append(congested, l)
						}
					}
				}
				pins := pinsOf(g, congested, nil, nil)
				for _, victim := range net.FlowsAcross(congested, flow.NoEvent) {
					var want, got int
					wantOK := scanDetourable(p, victim, congested, &want)
					gotOK := p.detourable(p.View(), victim, congested, pins, &got)
					if gotOK != wantOK || got != want {
						t.Fatalf("%v across %v: detourable %v with %d evals, full scan %v with %d",
							victim, congested, gotOK, got, wantOK, want)
					}
					switch {
					case pins.pin(victim):
						pinned++
					case wantOK && crossesPinningLink(g, victim, congested):
						transits++
					case wantOK:
						detours++
					}
				}
			}
			t.Logf("util %.2f: %d victims pinned, %d detourable, %d detourable across a degree-1 node",
				net.Utilization(), pinned, detours, transits)
			if pinned == 0 || detours+transits == 0 {
				t.Fatalf("both branches must be exercised: %d pinned, %d detourable", pinned, detours+transits)
			}
			if tc.name == "transit" && transits == 0 {
				t.Fatal("no detourable flow transits a pinning node")
			}
		})
	}
}

// crossesPinningLink reports whether f's path crosses a congested link
// whose tail has out-degree 1 or whose head has in-degree 1.
func crossesPinningLink(g *topology.Graph, f *flow.Flow, congested []topology.LinkID) bool {
	for _, l := range congested {
		link := g.Link(l)
		if f.Path().Contains(l) && (len(g.Out(link.From)) == 1 || len(g.In(link.To)) == 1) {
			return true
		}
	}
	return false
}
