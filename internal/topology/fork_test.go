package topology

import "testing"

// forkGraph builds a 3-node line x->y->z with two links.
func forkGraph(t *testing.T) (*Graph, LinkID, LinkID) {
	t.Helper()
	g := NewGraph()
	x := g.AddNode(KindEdgeSwitch, "x")
	y := g.AddNode(KindEdgeSwitch, "y")
	z := g.AddNode(KindEdgeSwitch, "z")
	l1, err := g.AddLink(x, y, Gbps)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := g.AddLink(y, z, Gbps)
	if err != nil {
		t.Fatal(err)
	}
	return g, l1, l2
}

// TestReserveReleaseMoveOnlyTheirLink: reserve and release move only the
// touched link's reserved bandwidth, and a refused reservation moves
// nothing.
func TestReserveReleaseMoveOnlyTheirLink(t *testing.T) {
	g, l1, l2 := forkGraph(t)
	if err := g.Reserve(l1, Mbps); err != nil {
		t.Fatal(err)
	}
	if err := g.Release(l1, Mbps); err != nil {
		t.Fatal(err)
	}
	if err := g.Reserve(l2, Mbps); err != nil {
		t.Fatal(err)
	}
	if err := g.Reserve(l1, 2*Gbps); err == nil {
		t.Fatal("overcommit reserve unexpectedly succeeded")
	}
	if g.Link(l1).Reserved() != 0 || g.Link(l2).Reserved() != Mbps {
		t.Errorf("ledger = (%v, %v), want (0, 1Mbps)", g.Link(l1).Reserved(), g.Link(l2).Reserved())
	}
}

func TestGraphForkIsolatesReservations(t *testing.T) {
	g, l1, l2 := forkGraph(t)
	if err := g.Reserve(l1, 100*Mbps); err != nil {
		t.Fatal(err)
	}
	f := g.Fork()
	if f.Link(l1).Reserved() != 100*Mbps {
		t.Fatal("fork must start as an exact copy of the live ledger")
	}
	// Writes to the fork must not leak into the live graph, and vice versa.
	if err := f.Reserve(l2, 300*Mbps); err != nil {
		t.Fatal(err)
	}
	if got := g.Link(l2).Reserved(); got != 0 {
		t.Errorf("live l2 reserved = %v after fork write, want 0", got)
	}
	if err := g.Reserve(l1, 50*Mbps); err != nil {
		t.Fatal(err)
	}
	if got := f.Link(l1).Reserved(); got != 100*Mbps {
		t.Errorf("fork l1 reserved = %v after live write, want 100Mbps", got)
	}
}
