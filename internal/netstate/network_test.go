package netstate

import (
	"errors"
	"testing"

	"netupdate/internal/flow"
	"netupdate/internal/routing"
	"netupdate/internal/topology"
)

// newTestNetwork returns a k=4 fat-tree network with widest-fit selection.
func newTestNetwork(t *testing.T) (*Network, *topology.FatTree) {
	t.Helper()
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	n := New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.WidestFit{})
	return n, ft
}

func mustAdd(t *testing.T, n *Network, src, dst topology.NodeID, demand topology.Bandwidth) *flow.Flow {
	t.Helper()
	f, err := n.AddFlow(flow.Spec{Src: src, Dst: dst, Demand: demand, Size: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPlaceBestReservesBandwidth(t *testing.T) {
	n, ft := newTestNetwork(t)
	f := mustAdd(t, n, ft.Host(0, 0, 0), ft.Host(1, 0, 0), 400*topology.Mbps)

	path, err := n.PlaceBest(f)
	if err != nil {
		t.Fatalf("PlaceBest: %v", err)
	}
	if !f.Placed() {
		t.Fatal("flow not placed")
	}
	for _, l := range path.Links() {
		if got := n.Graph().Link(l).Reserved(); got != 400*topology.Mbps {
			t.Errorf("link %v reserved = %v, want 400Mbps", l, got)
		}
	}
	if n.Utilization() == 0 {
		t.Error("utilization still zero after placement")
	}
}

func TestPlaceBestExhaustsAllPaths(t *testing.T) {
	n, ft := newTestNetwork(t)
	src, dst := ft.Host(0, 0, 0), ft.Host(0, 1, 0) // same pod: 2 paths (k=4)

	// Each placement takes 600 Mbps; two fit on disjoint agg paths, the
	// third cannot (shared host access links are full at 1 Gbps... actually
	// the host uplink carries every flow, so a second 600 Mbps flow already
	// exceeds it).
	f1 := mustAdd(t, n, src, dst, 600*topology.Mbps)
	if _, err := n.PlaceBest(f1); err != nil {
		t.Fatalf("first placement: %v", err)
	}
	f2 := mustAdd(t, n, src, dst, 600*topology.Mbps)
	if _, err := n.PlaceBest(f2); !errors.Is(err, ErrNoFeasiblePath) {
		t.Fatalf("second placement error = %v, want ErrNoFeasiblePath (host uplink full)", err)
	}
	if f2.Placed() {
		t.Error("failed placement left flow placed")
	}
}

func TestPlaceRollsBackOnPartialFailure(t *testing.T) {
	n, ft := newTestNetwork(t)
	g := n.Graph()
	src, dst := ft.Host(0, 0, 0), ft.Host(2, 0, 0)
	f := mustAdd(t, n, src, dst, 500*topology.Mbps)

	paths := n.Candidates(f)
	target := paths[0]
	// Congest the last link of the target path so reservation fails midway.
	last := target.Links()[target.Len()-1]
	if err := g.Reserve(last, 700*topology.Mbps); err != nil {
		t.Fatal(err)
	}
	if err := n.Place(f, target); err == nil {
		t.Fatal("Place on congested path succeeded")
	}
	// Every other link of the path must be back to 0 reserved.
	for _, l := range target.Links()[:target.Len()-1] {
		if got := g.Link(l).Reserved(); got != 0 {
			t.Errorf("link %v reserved = %v after rollback, want 0", l, got)
		}
	}
	if f.Placed() {
		t.Error("flow placed after failed Place")
	}
}

func TestPlaceEmptyPathAndDoublePlace(t *testing.T) {
	n, ft := newTestNetwork(t)
	f := mustAdd(t, n, ft.Host(0, 0, 0), ft.Host(1, 0, 0), topology.Mbps)
	if err := n.Place(f, routing.Path{}); err == nil {
		t.Error("Place(empty path) succeeded")
	}
	if _, err := n.PlaceBest(f); err != nil {
		t.Fatal(err)
	}
	if err := n.Place(f, f.Path()); !errors.Is(err, flow.ErrAlreadyPlaced) {
		t.Errorf("double Place error = %v, want ErrAlreadyPlaced", err)
	}
}

func TestWithdrawRestoresBandwidth(t *testing.T) {
	n, ft := newTestNetwork(t)
	f := mustAdd(t, n, ft.Host(0, 0, 0), ft.Host(1, 1, 1), 250*topology.Mbps)
	path, err := n.PlaceBest(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Withdraw(f); err != nil {
		t.Fatalf("Withdraw: %v", err)
	}
	for _, l := range path.Links() {
		if got := n.Graph().Link(l).Reserved(); got != 0 {
			t.Errorf("link %v reserved = %v after withdraw, want 0", l, got)
		}
	}
	if err := n.Withdraw(f); !errors.Is(err, flow.ErrNotPlaced) {
		t.Errorf("double Withdraw error = %v, want ErrNotPlaced", err)
	}
	// The flow is still registered and can be placed again.
	if _, err := n.PlaceBest(f); err != nil {
		t.Errorf("re-place after withdraw: %v", err)
	}
}

func TestRemoveDeletesFlow(t *testing.T) {
	n, ft := newTestNetwork(t)
	f := mustAdd(t, n, ft.Host(0, 0, 0), ft.Host(1, 1, 1), 250*topology.Mbps)
	if _, err := n.PlaceBest(f); err != nil {
		t.Fatal(err)
	}
	if err := n.Remove(f); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if n.Utilization() != 0 {
		t.Error("utilization nonzero after removing only flow")
	}
	if _, err := n.Registry().Get(f.ID); !errors.Is(err, flow.ErrUnknownFlow) {
		t.Error("flow still registered after Remove")
	}
}

func TestRerouteMovesReservations(t *testing.T) {
	n, ft := newTestNetwork(t)
	f := mustAdd(t, n, ft.Host(0, 0, 0), ft.Host(0, 1, 0), 400*topology.Mbps)
	paths := n.Candidates(f)
	if len(paths) != 2 {
		t.Fatalf("same-pod candidates = %d, want 2", len(paths))
	}
	if err := n.Place(f, paths[0]); err != nil {
		t.Fatal(err)
	}
	if err := n.Reroute(f, paths[1]); err != nil {
		t.Fatalf("Reroute: %v", err)
	}
	if !f.Path().Equal(paths[1]) {
		t.Error("flow not on new path after Reroute")
	}
	// Old path's agg links are free again (host access links are shared
	// between the two paths, so check the middle links only).
	for _, l := range paths[0].Links() {
		if paths[1].Contains(l) {
			continue
		}
		if got := n.Graph().Link(l).Reserved(); got != 0 {
			t.Errorf("old link %v still reserved: %v", l, got)
		}
	}
}

func TestRerouteRestoresOnFailure(t *testing.T) {
	n, ft := newTestNetwork(t)
	g := n.Graph()
	f := mustAdd(t, n, ft.Host(0, 0, 0), ft.Host(0, 1, 0), 400*topology.Mbps)
	paths := n.Candidates(f)
	if err := n.Place(f, paths[0]); err != nil {
		t.Fatal(err)
	}
	// Fill the alternative path's distinctive middle link.
	var blocked topology.LinkID = topology.InvalidLink
	for _, l := range paths[1].Links() {
		if !paths[0].Contains(l) {
			blocked = l
			break
		}
	}
	if err := g.Reserve(blocked, 700*topology.Mbps); err != nil {
		t.Fatal(err)
	}
	if err := n.Reroute(f, paths[1]); !errors.Is(err, ErrNoFeasiblePath) {
		t.Fatalf("Reroute error = %v, want ErrNoFeasiblePath", err)
	}
	if !f.Placed() || !f.Path().Equal(paths[0]) {
		t.Error("flow not restored to original path")
	}
	for _, l := range paths[0].Links() {
		if got := g.Link(l).Reserved(); got != 400*topology.Mbps {
			t.Errorf("restored link %v reserved = %v, want 400Mbps", l, got)
		}
	}
}

func TestDesiredPathIgnoresFeasibility(t *testing.T) {
	n, ft := newTestNetwork(t)
	g := n.Graph()
	f := mustAdd(t, n, ft.Host(0, 0, 0), ft.Host(0, 1, 0), 800*topology.Mbps)
	paths := n.Candidates(f)
	// Congest both candidates; desired path is still returned (the less
	// congested one).
	for i, p := range paths {
		for _, l := range p.Links() {
			if !paths[(i+1)%2].Contains(l) {
				if err := g.Reserve(l, topology.Bandwidth(500+i*200)*topology.Mbps); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	}
	dp, err := n.DesiredPath(f)
	if err != nil {
		t.Fatalf("DesiredPath: %v", err)
	}
	if dp.IsZero() {
		t.Fatal("DesiredPath returned zero path")
	}
	congested := n.CongestedLinks(f, dp)
	if len(congested) == 0 {
		t.Error("expected congestion on desired path at 800Mbps demand")
	}
}

func TestFlowsAcross(t *testing.T) {
	n, ft := newTestNetwork(t)
	src, dst := ft.Host(0, 0, 0), ft.Host(0, 0, 1)
	// Three flows on the same 2-hop path (same edge switch), two belonging
	// to event 7.
	var flows []*flow.Flow
	for i := 0; i < 3; i++ {
		spec := flow.Spec{Src: src, Dst: dst, Demand: 10 * topology.Mbps, Event: flow.NoEvent}
		if i < 2 {
			spec.Event = 7
		}
		f, err := n.AddFlow(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.PlaceBest(f); err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
	}
	links := flows[0].Path().Links()

	all := n.FlowsAcross(links, flow.NoEvent)
	if len(all) != 3 {
		t.Fatalf("FlowsAcross(no exclude) = %d flows, want 3", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].ID <= all[i-1].ID {
			t.Error("FlowsAcross not ID-sorted")
		}
	}
	filtered := n.FlowsAcross(links, 7)
	if len(filtered) != 1 || filtered[0] != flows[2] {
		t.Errorf("FlowsAcross(exclude 7) = %v, want only background flow", filtered)
	}
	if got := n.FlowsAcross(nil, flow.NoEvent); got != nil {
		t.Errorf("FlowsAcross(no links) = %v, want nil", got)
	}
}

func TestNewDefaultsSelector(t *testing.T) {
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	n := New(ft.Graph(), routing.NewFatTreeProvider(ft), nil)
	f := mustAdd(t, n, ft.Host(0, 0, 0), ft.Host(1, 0, 0), topology.Mbps)
	if _, err := n.PlaceBest(f); err != nil {
		t.Errorf("PlaceBest with default selector: %v", err)
	}
}

func TestAccessors(t *testing.T) {
	n, _ := newTestNetwork(t)
	if n.Provider() == nil {
		t.Error("Provider() = nil")
	}
	if n.DataPlane() != nil {
		t.Error("DataPlane() != nil before attach")
	}
}

func TestDesiredPathNoCandidates(t *testing.T) {
	n, ft := newTestNetwork(t)
	// A flow between two switches has no host-pair candidates under the
	// fat-tree provider.
	f := &flow.Flow{ID: 999, Src: ft.Core(0, 0), Dst: ft.Agg(0, 0), Demand: topology.Mbps}
	if _, err := n.DesiredPath(f); err == nil {
		t.Error("DesiredPath with no candidates succeeded")
	}
}

func TestRemoveUnknownFlow(t *testing.T) {
	n, _ := newTestNetwork(t)
	ghost := &flow.Flow{ID: 12345, Src: 0, Dst: 1, Demand: topology.Mbps}
	if err := n.Remove(ghost); err == nil {
		t.Error("Remove(ghost) succeeded")
	}
}

// TestTrialBracketRestoresEverything: a placement made and removed inside
// BeginTrial/EndTrial leaves the ledger and the flow-ID sequence as they
// were.
func TestTrialBracketRestoresEverything(t *testing.T) {
	n, ft := newTestNetwork(t)
	kept := mustAdd(t, n, ft.Host(0, 0, 0), ft.Host(1, 0, 0), 100*topology.Mbps)
	if _, err := n.PlaceBest(kept); err != nil {
		t.Fatal(err)
	}
	g := n.Graph()
	pos, util := n.Registry().Mark(), g.Utilization()

	n.BeginTrial()
	trial := mustAdd(t, n, ft.Host(0, 0, 0), ft.Host(1, 0, 0), 200*topology.Mbps)
	path, err := n.PlaceBest(trial)
	if err != nil {
		t.Fatal(err)
	}
	if g.Link(path.Links()[0]).Reserved() < 200*topology.Mbps {
		t.Error("trial placement reserved nothing")
	}
	if err := n.Remove(trial); err != nil {
		t.Fatal(err)
	}
	n.EndTrial()

	if n.Registry().Mark() != pos || g.Utilization() != util {
		t.Errorf("after trial: registry %+v (want %+v), utilization %v (want %v)",
			n.Registry().Mark(), pos, g.Utilization(), util)
	}
	if next := mustAdd(t, n, ft.Host(0, 0, 0), ft.Host(1, 0, 0), topology.Mbps); next.ID != kept.ID+1 {
		t.Errorf("flow after trial got ID %d, want %d", next.ID, kept.ID+1)
	}
}
