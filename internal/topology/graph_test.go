package topology

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// twoNodeGraph returns a graph with two nodes and one 1 Gbps link a->b.
func twoNodeGraph(t *testing.T) (*Graph, NodeID, NodeID, LinkID) {
	t.Helper()
	g := NewGraph()
	a := g.AddNode(KindHost, "a")
	b := g.AddNode(KindHost, "b")
	l, err := g.AddLink(a, b, Gbps)
	if err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	return g, a, b, l
}

func TestGraphAddNodeAssignsDenseIDs(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 10; i++ {
		id := g.AddNode(KindHost, "h")
		if int(id) != i {
			t.Fatalf("AddNode #%d returned ID %d", i, int(id))
		}
	}
	if g.NumNodes() != 10 {
		t.Errorf("NumNodes() = %d, want 10", g.NumNodes())
	}
}

func TestGraphAddLinkErrors(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(KindHost, "a")
	b := g.AddNode(KindHost, "b")

	tests := []struct {
		name     string
		from, to NodeID
		capacity Bandwidth
		wantErr  error
	}{
		{"unknown from", NodeID(99), b, Gbps, ErrUnknownNode},
		{"unknown to", a, NodeID(-2), Gbps, ErrUnknownNode},
		{"negative capacity", a, b, -1, ErrNegativeBandwidth},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := g.AddLink(tt.from, tt.to, tt.capacity); !errors.Is(err, tt.wantErr) {
				t.Errorf("AddLink() error = %v, want %v", err, tt.wantErr)
			}
		})
	}

	if _, err := g.AddLink(a, b, Gbps); err != nil {
		t.Fatalf("first AddLink: %v", err)
	}
	if _, err := g.AddLink(a, b, Gbps); !errors.Is(err, ErrDuplicateLink) {
		t.Errorf("duplicate AddLink error = %v, want ErrDuplicateLink", err)
	}
	// Reverse direction is a distinct link and must succeed.
	if _, err := g.AddLink(b, a, Gbps); err != nil {
		t.Errorf("reverse AddLink: %v", err)
	}
}

func TestGraphAddBiLink(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(KindEdgeSwitch, "a")
	b := g.AddNode(KindEdgeSwitch, "b")
	ab, ba, err := g.AddBiLink(a, b, 10*Mbps)
	if err != nil {
		t.Fatalf("AddBiLink: %v", err)
	}
	if g.Link(ab).From != a || g.Link(ab).To != b {
		t.Errorf("forward link endpoints = %v", g.Link(ab))
	}
	if g.Link(ba).From != b || g.Link(ba).To != a {
		t.Errorf("reverse link endpoints = %v", g.Link(ba))
	}
	if got, ok := g.LinkBetween(a, b); !ok || got != ab {
		t.Errorf("LinkBetween(a,b) = %v,%v want %v,true", got, ok, ab)
	}
	if got, ok := g.LinkBetween(b, a); !ok || got != ba {
		t.Errorf("LinkBetween(b,a) = %v,%v want %v,true", got, ok, ba)
	}
	if _, ok := g.LinkBetween(b, b); ok {
		t.Error("LinkBetween(b,b) found a link, want none")
	}
}

func TestGraphAdjacency(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(KindHost, "a")
	b := g.AddNode(KindHost, "b")
	c := g.AddNode(KindHost, "c")
	ab, _ := g.AddLink(a, b, Gbps)
	ac, _ := g.AddLink(a, c, Gbps)
	cb, _ := g.AddLink(c, b, Gbps)

	if out := g.Out(a); len(out) != 2 || out[0] != ab || out[1] != ac {
		t.Errorf("Out(a) = %v, want [%v %v]", out, ab, ac)
	}
	if in := g.In(b); len(in) != 2 || in[0] != ab || in[1] != cb {
		t.Errorf("In(b) = %v, want [%v %v]", in, ab, cb)
	}
	if out := g.Out(b); len(out) != 0 {
		t.Errorf("Out(b) = %v, want empty", out)
	}
}

func TestReserveRelease(t *testing.T) {
	g, _, _, l := twoNodeGraph(t)

	if err := g.Reserve(l, 600*Mbps); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if got := g.Link(l).Residual(); got != 400*Mbps {
		t.Errorf("Residual = %v, want 400Mbps", got)
	}
	if err := g.Reserve(l, 500*Mbps); !errors.Is(err, ErrInsufficientBandwidth) {
		t.Errorf("over-reserve error = %v, want ErrInsufficientBandwidth", err)
	}
	// Failed reserve must not change state.
	if got := g.Link(l).Residual(); got != 400*Mbps {
		t.Errorf("Residual after failed reserve = %v, want 400Mbps", got)
	}
	if err := g.Release(l, 700*Mbps); !errors.Is(err, ErrOverRelease) {
		t.Errorf("over-release error = %v, want ErrOverRelease", err)
	}
	if err := g.Release(l, 600*Mbps); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if got := g.Link(l).Residual(); got != Gbps {
		t.Errorf("Residual after full release = %v, want 1Gbps", got)
	}
	if err := g.Reserve(l, -1); !errors.Is(err, ErrNegativeBandwidth) {
		t.Errorf("negative reserve error = %v, want ErrNegativeBandwidth", err)
	}
	if err := g.Release(l, -1); !errors.Is(err, ErrNegativeBandwidth) {
		t.Errorf("negative release error = %v, want ErrNegativeBandwidth", err)
	}
}

func TestReserveExactCapacity(t *testing.T) {
	g, _, _, l := twoNodeGraph(t)
	if err := g.Reserve(l, Gbps); err != nil {
		t.Fatalf("Reserve full capacity: %v", err)
	}
	if got := g.Link(l).Residual(); got != 0 {
		t.Errorf("Residual = %v, want 0", got)
	}
	if got := g.Link(l).Utilization(); got != 1.0 {
		t.Errorf("Utilization = %v, want 1.0", got)
	}
	if err := g.Reserve(l, 1); !errors.Is(err, ErrInsufficientBandwidth) {
		t.Errorf("reserve beyond capacity error = %v, want ErrInsufficientBandwidth", err)
	}
}

func TestUtilization(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(KindEdgeSwitch, "a")
	b := g.AddNode(KindAggSwitch, "b")
	h := g.AddNode(KindHost, "h")
	fabric, _ := g.AddLink(a, b, Gbps)
	access, _ := g.AddLink(h, a, Gbps)

	if got := g.Utilization(); got != 0 {
		t.Errorf("empty Utilization = %v, want 0", got)
	}
	if err := g.Reserve(fabric, 500*Mbps); err != nil {
		t.Fatal(err)
	}
	if err := g.Reserve(access, 250*Mbps); err != nil {
		t.Fatal(err)
	}
	if got, want := g.Utilization(), 0.375; got != want {
		t.Errorf("Utilization = %v, want %v", got, want)
	}
	// Switch utilization ignores the host access link.
	if got, want := g.SwitchUtilization(), 0.5; got != want {
		t.Errorf("SwitchUtilization = %v, want %v", got, want)
	}
}

func TestNodesOfKind(t *testing.T) {
	g := NewGraph()
	g.AddNode(KindHost, "h0")
	s := g.AddNode(KindEdgeSwitch, "e0")
	g.AddNode(KindHost, "h1")
	got := g.NodesOfKind(KindEdgeSwitch)
	if len(got) != 1 || got[0] != s {
		t.Errorf("NodesOfKind(edge) = %v, want [%v]", got, s)
	}
	if hosts := g.NodesOfKind(KindHost); len(hosts) != 2 {
		t.Errorf("NodesOfKind(host) = %v, want 2 entries", hosts)
	}
}

func TestNodesReturnsCopy(t *testing.T) {
	g := NewGraph()
	g.AddNode(KindHost, "a")
	nodes := g.Nodes()
	nodes[0].Name = "mutated"
	if g.Node(0).Name != "a" {
		t.Error("mutating Nodes() result changed graph state")
	}
}

// TestReserveReleaseRoundTrip property: any sequence of successful reserves
// followed by matching releases restores the original residual, and the
// residual never goes negative in between.
func TestReserveReleaseRoundTrip(t *testing.T) {
	f := func(amounts []uint16) bool {
		g := NewGraph()
		a := g.AddNode(KindHost, "a")
		b := g.AddNode(KindHost, "b")
		l, err := g.AddLink(a, b, Gbps)
		if err != nil {
			return false
		}
		var reserved []Bandwidth
		for _, amt := range amounts {
			bw := Bandwidth(amt) * Mbps
			if err := g.Reserve(l, bw); err == nil {
				reserved = append(reserved, bw)
			} else if !errors.Is(err, ErrInsufficientBandwidth) {
				return false
			}
			if g.Link(l).Residual() < 0 {
				return false
			}
		}
		for _, bw := range reserved {
			if err := g.Release(l, bw); err != nil {
				return false
			}
		}
		return g.Link(l).Residual() == Gbps && g.Link(l).Reserved() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestReservationConservation property: the sum of Reserved over all links
// always equals the sum of amounts successfully reserved minus released.
func TestReservationConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := NewGraph()
	const n = 8
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = g.AddNode(KindEdgeSwitch, "s")
	}
	var links []LinkID
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			l, err := g.AddLink(ids[i], ids[j], 100*Mbps)
			if err != nil {
				t.Fatal(err)
			}
			links = append(links, l)
		}
	}
	var ledger Bandwidth
	outstanding := make(map[LinkID]Bandwidth)
	for step := 0; step < 5000; step++ {
		l := links[rng.Intn(len(links))]
		if rng.Intn(2) == 0 {
			bw := Bandwidth(rng.Intn(50)+1) * Mbps
			if err := g.Reserve(l, bw); err == nil {
				ledger += bw
				outstanding[l] += bw
			}
		} else if outstanding[l] > 0 {
			bw := Bandwidth(rng.Int63n(int64(outstanding[l]))) + 1
			if err := g.Release(l, bw); err != nil {
				t.Fatalf("release within outstanding failed: %v", err)
			}
			ledger -= bw
			outstanding[l] -= bw
		}
	}
	var total Bandwidth
	for _, l := range links {
		total += g.Link(l).Reserved()
		if g.Link(l).Residual() < 0 {
			t.Fatalf("link %v has negative residual", l)
		}
	}
	if total != ledger {
		t.Errorf("total reserved = %v, ledger = %v", total, ledger)
	}
}

// linkSumUtilization is Utilization computed the long way: a fresh sum
// over every link.
func linkSumUtilization(g *Graph) float64 {
	var used, total Bandwidth
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(LinkID(i))
		used += l.Reserved()
		total += l.Capacity
	}
	if total == 0 {
		return 0
	}
	return float64(used) / float64(total)
}

// TestUtilizationMatchesLinkSum: the graph's running totals answer
// Utilization bit for bit as a per-link sum does, through reservations,
// refused reservations, releases, capacity rewrites, reservations that
// cancel and forks — each fork keeping its own totals from then on.
func TestUtilizationMatchesLinkSum(t *testing.T) {
	ft, err := NewFatTree(4, Gbps)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ft.Graph().Utilization(), linkSumUtilization(ft.Graph()); got != want || got != 0 {
		t.Fatalf("built fat-tree: Utilization = %v, link sum = %v, want 0", got, want)
	}
	for seed := int64(1); seed <= 5; seed++ {
		g := ft.Graph().Fork()
		rng := rand.New(rand.NewSource(seed))
		link := func() LinkID { return LinkID(rng.Intn(g.NumLinks())) }
		check := func(step int, op string, g *Graph) {
			t.Helper()
			if got, want := g.Utilization(), linkSumUtilization(g); got != want {
				t.Fatalf("seed %d step %d (%s): Utilization = %v, link sum = %v", seed, step, op, got, want)
			}
		}
		check(0, "fork", g)
		for step := 1; step <= 400; step++ {
			switch op := rng.Intn(6); op {
			case 0: // Reserve within the residual
				id := link()
				if res := g.Link(id).Residual(); res > 0 {
					if err := g.Reserve(id, 1+Bandwidth(rng.Int63n(int64(res)))); err != nil {
						t.Fatal(err)
					}
				}
				check(step, "reserve", g)
			case 1: // Reserve beyond the residual is refused and changes nothing
				id := link()
				before := g.Utilization()
				if err := g.Reserve(id, g.Link(id).Residual()+1); !errors.Is(err, ErrInsufficientBandwidth) {
					t.Fatalf("over-reserve: %v", err)
				}
				if g.Utilization() != before {
					t.Fatalf("seed %d step %d: a refused reserve moved Utilization", seed, step)
				}
				check(step, "refused reserve", g)
			case 2: // Release part of what is reserved
				id := link()
				if r := g.Link(id).Reserved(); r > 0 {
					if err := g.Release(id, 1+Bandwidth(rng.Int63n(int64(r)))); err != nil {
						t.Fatal(err)
					}
				}
				check(step, "release", g)
			case 3: // SetCapacity anywhere at or above the reservation
				id := link()
				c := g.Link(id).Reserved() + Bandwidth(rng.Int63n(int64(2*Gbps)))
				if err := g.SetCapacity(id, c); err != nil {
					t.Fatal(err)
				}
				check(step, "set capacity", g)
			case 4: // reservations released again in reverse cancel
				var held []LinkID
				for i := 0; i < 8; i++ {
					id := link()
					if g.Link(id).Residual() >= Mbps && g.Reserve(id, Mbps) == nil {
						held = append(held, id)
						check(step, "held reserve", g)
					}
				}
				for i := len(held) - 1; i >= 0; i-- {
					if err := g.Release(held[i], Mbps); err != nil {
						t.Fatal(err)
					}
					check(step, "held release", g)
				}
			case 5: // Fork, then diverge the fork from its parent
				parent := g.Utilization()
				f := g.Fork()
				check(step, "fork", f)
				if f.Utilization() != parent {
					t.Fatalf("seed %d step %d: fork Utilization %v, parent %v", seed, step, f.Utilization(), parent)
				}
				id := link()
				if res := f.Link(id).Residual(); res > 0 {
					if err := f.Reserve(id, res); err != nil {
						t.Fatal(err)
					}
				}
				check(step, "reserve on fork", f)
				if g.Utilization() != parent {
					t.Fatalf("seed %d step %d: reserving on a fork moved the parent", seed, step)
				}
				if rng.Intn(2) == 0 {
					g = f
				}
			}
		}
		if g.Utilization() == 0 {
			t.Errorf("seed %d: the steps left nothing reserved", seed)
		}
	}
}
