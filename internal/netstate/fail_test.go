package netstate

import (
	"errors"
	"slices"
	"testing"

	"netupdate/internal/flow"
	"netupdate/internal/routing"
	"netupdate/internal/rules"
	"netupdate/internal/topology"
)

func TestFailLinksReturnsAffectedFlows(t *testing.T) {
	n, ft := newTestNetwork(t)
	f := mustAdd(t, n, ft.Host(0, 0, 0), ft.Host(1, 0, 0), 400*topology.Mbps)
	path, err := n.PlaceBest(f)
	if err != nil {
		t.Fatalf("PlaceBest: %v", err)
	}
	// A second flow in a different pod pair that shares no link with f's
	// path must not appear in the affected set.
	other := mustAdd(t, n, ft.Host(2, 0, 0), ft.Host(2, 1, 0), 100*topology.Mbps)
	if _, err := n.PlaceBest(other); err != nil {
		t.Fatalf("PlaceBest(other): %v", err)
	}

	failed := path.Links()[:1]
	affected, changed := n.FailLinks(failed)
	if changed != 1 {
		t.Errorf("FailLinks changed = %d, want 1", changed)
	}
	if len(affected) != 1 || affected[0].ID != f.ID {
		t.Errorf("affected = %v, want exactly flow %v", affected, f.ID)
	}
	if !n.Graph().Link(failed[0]).Down() {
		t.Error("link not marked down")
	}
	// The flow's reservation persists until the fault layer withdraws it.
	if got := n.Graph().Link(failed[0]).Reserved(); got != 400*topology.Mbps {
		t.Errorf("down link reserved = %v, want 400Mbps", got)
	}
	// Withdraw still works across the down link.
	if err := n.Withdraw(f); err != nil {
		t.Fatalf("Withdraw across down link: %v", err)
	}
	if got := n.Graph().Link(failed[0]).Reserved(); got != 0 {
		t.Errorf("down link reserved after withdraw = %v, want 0", got)
	}
}

func TestFailLinksIdempotentAndRestore(t *testing.T) {
	n, ft := newTestNetwork(t)
	up, ok := n.Graph().LinkBetween(ft.Host(0, 0, 0), ft.Edge(0, 0))
	if !ok {
		t.Fatal("no host uplink")
	}
	links := []topology.LinkID{up}

	if _, changed := n.FailLinks(links); changed != 1 {
		t.Fatal("first FailLinks did not change state")
	}
	if _, changed := n.FailLinks(links); changed != 0 {
		t.Error("second FailLinks on a down link reported a change")
	}
	if got := n.Graph().NumLinksDown(); got != 1 {
		t.Errorf("NumLinksDown = %d, want 1", got)
	}

	// While down, placement over the link is impossible.
	f := mustAdd(t, n, ft.Host(0, 0, 0), ft.Host(1, 0, 0), topology.Mbps)
	if _, err := n.PlaceBest(f); !errors.Is(err, ErrNoFeasiblePath) {
		t.Errorf("PlaceBest over down uplink: err = %v, want ErrNoFeasiblePath", err)
	}

	if changed := n.RestoreLinks(links); changed != 1 {
		t.Error("RestoreLinks did not change state")
	}
	if changed := n.RestoreLinks(links); changed != 0 {
		t.Error("RestoreLinks on an up link reported a change")
	}
	if got := n.Graph().NumLinksDown(); got != 0 {
		t.Errorf("NumLinksDown after restore = %d, want 0", got)
	}
	if _, err := n.PlaceBest(f); err != nil {
		t.Errorf("PlaceBest after restore: %v", err)
	}
}

// TestRerouteOffDownLinkKeepsOldPath: a flow whose old path crosses a
// down link fails to move — its new path does not fit, or the data
// plane refuses the transition — and Reroute returns the error with the
// flow on its old path and ledger, registry and rule tables as before.
func TestRerouteOffDownLinkKeepsOldPath(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tables int // rule table capacity; 0 = no data plane
		want   error
	}{
		{"new path does not fit", 0, ErrNoFeasiblePath},
		{"data plane refuses", 1, rules.ErrTableFull},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var n *Network
			var ft *topology.FatTree
			var m *rules.Manager
			if tc.tables > 0 {
				n, ft, m = newDPNetwork(t, tc.tables)
			} else {
				n, ft = newTestNetwork(t)
			}
			g := n.Graph()
			f := mustAdd(t, n, ft.Host(0, 0, 0), ft.Host(0, 1, 0), 400*topology.Mbps)
			paths := n.Candidates(f)
			old, alt := paths.At(0), paths.At(1)
			if err := n.Place(f, old); err != nil {
				t.Fatal(err)
			}
			// Fail the old path's own middle link; without a data plane,
			// fill the alternative's so the move does not fit.
			own := func(p, other routing.Path) topology.LinkID {
				for _, l := range p.Links() {
					if !other.Contains(l) {
						return l
					}
				}
				t.Fatal("the candidates share every link")
				return topology.InvalidLink
			}
			if _, changed := n.FailLinks([]topology.LinkID{own(old, alt)}); changed != 1 {
				t.Fatal("FailLinks changed nothing")
			}
			if tc.tables == 0 {
				if err := g.Reserve(own(alt, old), 700*topology.Mbps); err != nil {
					t.Fatal(err)
				}
			}
			ledger := func() []topology.Bandwidth {
				out := make([]topology.Bandwidth, g.NumLinks())
				for i := range out {
					out[i] = g.Link(topology.LinkID(i)).Reserved()
				}
				return out
			}
			before := ledger()
			placed := n.Registry().NumPlaced()

			if err := n.Reroute(f, alt); !errors.Is(err, tc.want) {
				t.Fatalf("Reroute error = %v, want %v", err, tc.want)
			}
			if !f.Placed() || !f.Path().Equal(old) {
				t.Fatal("flow left its old path")
			}
			if !slices.Equal(ledger(), before) {
				t.Errorf("ledger moved:\n before %v\n after  %v", before, ledger())
			}
			if got := n.Registry().NumPlaced(); got != placed {
				t.Errorf("placed flows = %d, want %d", got, placed)
			}
			for _, l := range old.Links() {
				if across := n.FlowsAcross([]topology.LinkID{l}, flow.NoEvent); len(across) != 1 || across[0] != f {
					t.Errorf("link %v indexes %v, want exactly the flow", l, across)
				}
			}
			for _, l := range alt.Links() {
				if !old.Contains(l) && len(n.FlowsAcross([]topology.LinkID{l}, flow.NoEvent)) != 0 {
					t.Errorf("link %v of the refused path indexes a flow", l)
				}
			}
			if m != nil && (!m.PathInstalled(f.ID, 1, old) || m.CurrentVersion(f.ID) != 1) {
				t.Error("old generation rules lost")
			}
		})
	}
}
