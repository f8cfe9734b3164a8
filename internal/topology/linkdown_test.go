package topology

import (
	"errors"
	"testing"
)

// TestSetLinkDownReportsChange: SetLinkDown reports whether the state
// changed (the fault layer counts links that actually flipped);
// repeating a state is a no-op.
func TestSetLinkDownReportsChange(t *testing.T) {
	g, _, _, l := twoNodeGraph(t)
	if !g.SetLinkDown(l, true) {
		t.Fatal("SetLinkDown(true) on an up link reported no change")
	}
	if g.SetLinkDown(l, true) {
		t.Error("SetLinkDown(true) on a down link reported a change")
	}
	if !g.SetLinkDown(l, false) {
		t.Fatal("SetLinkDown(false) on a down link reported no change")
	}
}

func TestDownLinkRejectsReserveButReleases(t *testing.T) {
	g, _, _, l := twoNodeGraph(t)
	if err := g.Reserve(l, 300*Mbps); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	g.SetLinkDown(l, true)

	if !g.Link(l).Down() {
		t.Fatal("Down() = false after SetLinkDown(true)")
	}
	if got := g.Link(l).Residual(); got != 0 {
		t.Errorf("down link Residual() = %v, want 0", got)
	}
	if err := g.Reserve(l, Mbps); !errors.Is(err, ErrLinkDown) {
		t.Errorf("Reserve on down link: error = %v, want ErrLinkDown", err)
	}
	// Existing reservations persist and can still be released while down,
	// so withdraw paths work during failure handling.
	if got := g.Link(l).Reserved(); got != 300*Mbps {
		t.Errorf("down link Reserved() = %v, want %v", got, 300*Mbps)
	}
	if err := g.Release(l, 300*Mbps); err != nil {
		t.Errorf("Release on down link: %v", err)
	}

	g.SetLinkDown(l, false)
	if got := g.Link(l).Residual(); got != Gbps {
		t.Errorf("restored link Residual() = %v, want %v", got, Gbps)
	}
	if err := g.Reserve(l, Mbps); err != nil {
		t.Errorf("Reserve after restore: %v", err)
	}
}

func TestForkCarriesDownState(t *testing.T) {
	g, _, _, l := twoNodeGraph(t)
	g.SetLinkDown(l, true)

	f := g.Fork()
	if !f.Link(l).Down() {
		t.Error("fork of a graph with a down link lost the down state")
	}

	// Flipping state on the parent does not reach the fork.
	g.SetLinkDown(l, false)
	if !f.Link(l).Down() {
		t.Error("fork state changed with its parent's")
	}
}

func TestNumLinksDownAndIncidentLinks(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(KindEdgeSwitch, "a")
	b := g.AddNode(KindEdgeSwitch, "b")
	c := g.AddNode(KindEdgeSwitch, "c")
	ab, ba, err := g.AddBiLink(a, b, Gbps)
	if err != nil {
		t.Fatalf("AddBiLink: %v", err)
	}
	bc, cb, err := g.AddBiLink(b, c, Gbps)
	if err != nil {
		t.Fatalf("AddBiLink: %v", err)
	}

	if got := g.NumLinksDown(); got != 0 {
		t.Errorf("NumLinksDown() = %d, want 0", got)
	}

	// Failing switch b takes down every incident link.
	incident := g.IncidentLinks(b)
	want := map[LinkID]bool{ab: true, ba: true, bc: true, cb: true}
	if len(incident) != len(want) {
		t.Fatalf("IncidentLinks(b) = %v, want the 4 links touching b", incident)
	}
	for _, id := range incident {
		if !want[id] {
			t.Errorf("IncidentLinks(b) contains unexpected link %d", int(id))
		}
		g.SetLinkDown(id, true)
	}
	if got := g.NumLinksDown(); got != 4 {
		t.Errorf("NumLinksDown() = %d, want 4", got)
	}
	// c's only neighbour is b, so both of c's links are down too.
	for _, id := range g.IncidentLinks(c) {
		if !g.Link(id).Down() {
			t.Errorf("link %d incident to c should be down", int(id))
		}
	}
}
