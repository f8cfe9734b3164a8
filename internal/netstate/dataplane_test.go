package netstate

import (
	"errors"
	"testing"

	"netupdate/internal/flow"
	"netupdate/internal/routing"
	"netupdate/internal/rules"
	"netupdate/internal/topology"
)

// newDPNetwork returns a k=4 fat-tree network with rule tables attached
// (capacity per switch as given; 0 = unlimited).
func newDPNetwork(t *testing.T, capacity int) (*Network, *topology.FatTree, *rules.Manager) {
	t.Helper()
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	n := New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.WidestFit{})
	m := rules.NewManager(ft.Graph(), capacity)
	if err := n.AttachDataPlane(m); err != nil {
		t.Fatal(err)
	}
	return n, ft, m
}

// switchHops counts the rules a path occupies (switch-sourced links).
func switchHops(g *topology.Graph, p routing.Path) int {
	hops := 0
	for _, l := range p.Links() {
		if g.Node(g.Link(l).From).Kind.IsSwitch() {
			hops++
		}
	}
	return hops
}

func TestAttachDataPlaneRequiresEmptyNetwork(t *testing.T) {
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	n := New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.WidestFit{})
	f := mustAdd(t, n, ft.Host(0, 0, 0), ft.Host(1, 0, 0), topology.Mbps)
	if _, err := n.PlaceBest(f); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachDataPlane(rules.NewManager(ft.Graph(), 0)); !errors.Is(err, ErrDataPlaneNotEmpty) {
		t.Errorf("AttachDataPlane error = %v, want ErrDataPlaneNotEmpty", err)
	}
}

func TestPlaceInstallsRules(t *testing.T) {
	n, ft, m := newDPNetwork(t, 0)
	f := mustAdd(t, n, ft.Host(0, 0, 0), ft.Host(1, 0, 0), 10*topology.Mbps)
	path, err := n.PlaceBest(f)
	if err != nil {
		t.Fatal(err)
	}
	if !m.PathInstalled(f.ID, 1, path) {
		t.Error("rules not installed after Place")
	}
	if got, want := m.TotalEntries(), switchHops(n.Graph(), path); got != want {
		t.Errorf("TotalEntries = %d, want %d", got, want)
	}
	if err := n.Withdraw(f); err != nil {
		t.Fatal(err)
	}
	if got := m.TotalEntries(); got != 0 {
		t.Errorf("TotalEntries after withdraw = %d, want 0", got)
	}
}

func TestRerouteIsTwoPhaseMove(t *testing.T) {
	n, ft, m := newDPNetwork(t, 0)
	f := mustAdd(t, n, ft.Host(0, 0, 0), ft.Host(0, 1, 0), 10*topology.Mbps)
	paths := n.Candidates(f)
	if err := n.Place(f, paths.At(0)); err != nil {
		t.Fatal(err)
	}
	if err := n.Reroute(f, paths.At(1)); err != nil {
		t.Fatal(err)
	}
	if !m.PathInstalled(f.ID, 2, paths.At(1)) {
		t.Error("generation 2 not installed on new path")
	}
	if m.PathInstalled(f.ID, 1, paths.At(0)) {
		t.Error("generation 1 still installed on old path")
	}
	if got := m.CurrentVersion(f.ID); got != 2 {
		t.Errorf("CurrentVersion = %d, want 2", got)
	}
	// Steady-state occupancy equals the new path's rules only.
	if got, want := m.TotalEntries(), switchHops(n.Graph(), paths.At(1)); got != want {
		t.Errorf("TotalEntries = %d, want %d", got, want)
	}
}

func TestRePlacementAdvancesGeneration(t *testing.T) {
	n, ft, m := newDPNetwork(t, 0)
	f := mustAdd(t, n, ft.Host(0, 0, 0), ft.Host(1, 0, 0), 10*topology.Mbps)
	if _, err := n.PlaceBest(f); err != nil {
		t.Fatal(err)
	}
	if err := n.Withdraw(f); err != nil {
		t.Fatal(err)
	}
	path, err := n.PlaceBest(f)
	if err != nil {
		t.Fatal(err)
	}
	// Second placement must not collide with the (removed) generation 1.
	if !m.PathInstalled(f.ID, 2, path) {
		t.Error("second placement not at generation 2")
	}
}

func TestFullTablesBlockPlacement(t *testing.T) {
	n, ft, _ := newDPNetwork(t, 1)
	// First flow occupies the shared edge switch's single slot.
	f1 := mustAdd(t, n, ft.Host(0, 0, 0), ft.Host(1, 0, 0), topology.Mbps)
	if _, err := n.PlaceBest(f1); err != nil {
		t.Fatal(err)
	}
	// A second flow from the same edge switch cannot install its rule.
	f2 := mustAdd(t, n, ft.Host(0, 0, 1), ft.Host(1, 0, 1), topology.Mbps)
	_, err := n.PlaceBest(f2)
	if !errors.Is(err, rules.ErrTableFull) {
		t.Fatalf("PlaceBest error = %v, want ErrTableFull", err)
	}
	if f2.Placed() {
		t.Error("flow placed despite full tables")
	}
	// Bandwidth fully rolled back: withdrawing f1 leaves a clean network.
	if err := n.Remove(f1); err != nil {
		t.Fatal(err)
	}
	if n.Utilization() != 0 {
		t.Error("utilization nonzero after cleanup")
	}
}

func TestFullTablesBlockRerouteAndRestore(t *testing.T) {
	// Capacity 1: a two-phase move needs both generations at the shared
	// edge switches, so the move must fail and restore the old path.
	n, ft, m := newDPNetwork(t, 1)
	f := mustAdd(t, n, ft.Host(0, 0, 0), ft.Host(0, 1, 0), topology.Mbps)
	paths := n.Candidates(f)
	if err := n.Place(f, paths.At(0)); err != nil {
		t.Fatal(err)
	}
	err := n.Reroute(f, paths.At(1))
	if !errors.Is(err, rules.ErrTableFull) {
		t.Fatalf("Reroute error = %v, want ErrTableFull", err)
	}
	if !f.Placed() || !f.Path().Equal(paths.At(0)) {
		t.Error("flow not restored to old path")
	}
	if !m.PathInstalled(f.ID, 1, paths.At(0)) {
		t.Error("old generation rules lost")
	}
	// Reservations restored exactly.
	for _, l := range paths.At(0).Links() {
		if got := n.Graph().Link(l).Reserved(); got != topology.Mbps {
			t.Errorf("link %v reserved = %v, want 1Mbps", l, got)
		}
	}
}

// TestDataPlaneMatchesRegistryInvariant drives a mixed workload and then
// checks the global invariant: the rule tables contain exactly the
// current-generation rules of the placed flows.
func TestDataPlaneMatchesRegistryInvariant(t *testing.T) {
	n, ft, m := newDPNetwork(t, 0)
	hosts := ft.Hosts()
	var flows []*flow.Flow
	for i := 0; i < 40; i++ {
		f := mustAdd(t, n, hosts[(2*i)%len(hosts)], hosts[(2*i+5)%len(hosts)], 5*topology.Mbps)
		if _, err := n.PlaceBest(f); err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
	}
	// Churn: reroute some, remove others.
	for i, f := range flows {
		switch i % 3 {
		case 0:
			paths := n.Candidates(f)
			for j := 0; j < paths.Len(); j++ {
				if p := paths.At(j); !p.Equal(f.Path()) {
					if err := n.Reroute(f, p); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
		case 1:
			if err := n.Remove(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := 0
	for _, f := range n.Registry().Placed() {
		if !m.PathInstalled(f.ID, m.CurrentVersion(f.ID), f.Path()) {
			t.Errorf("flow %v's rules missing or stale", f)
		}
		want += switchHops(n.Graph(), f.Path())
	}
	if got := m.TotalEntries(); got != want {
		t.Errorf("TotalEntries = %d, want %d (placed flows only)", got, want)
	}
}
