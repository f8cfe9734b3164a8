package snapshot

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"netupdate/internal/flow"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

// loadedNetwork builds a k=4 fat-tree at 40% utilization.
func loadedNetwork(t *testing.T) *netstate.Network {
	t.Helper()
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(3))
	gen, err := trace.NewGenerator(2, trace.YahooLike{}, ft.Hosts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.FillBackground(net, gen, 0.4, 0); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestRoundTrip(t *testing.T) {
	net := loadedNetwork(t)
	snap := Capture(net)

	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	read, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(read)
	if err != nil {
		t.Fatal(err)
	}

	// Structure preserved.
	if restored.Graph().NumNodes() != net.Graph().NumNodes() {
		t.Errorf("nodes = %d, want %d", restored.Graph().NumNodes(), net.Graph().NumNodes())
	}
	if restored.Graph().NumLinks() != net.Graph().NumLinks() {
		t.Errorf("links = %d, want %d", restored.Graph().NumLinks(), net.Graph().NumLinks())
	}
	if restored.Registry().Len() != net.Registry().Len() {
		t.Errorf("flows = %d, want %d", restored.Registry().Len(), net.Registry().Len())
	}
	// Reservations replayed exactly.
	for i := 0; i < net.Graph().NumLinks(); i++ {
		id := topology.LinkID(i)
		want := net.Graph().Link(id).Reserved()
		if got := restored.Graph().Link(id).Reserved(); got != want {
			t.Fatalf("link %d reserved = %v, want %v", i, got, want)
		}
	}
	if got, want := restored.Utilization(), net.Utilization(); got != want {
		t.Errorf("utilization = %v, want %v", got, want)
	}
	// Every placed flow kept its exact path.
	orig := net.Registry().Placed()
	rest := restored.Registry().Placed()
	if len(orig) != len(rest) {
		t.Fatalf("placed = %d, want %d", len(rest), len(orig))
	}
	for i := range orig {
		if !orig[i].Path().Equal(rest[i].Path()) {
			t.Errorf("flow %d path changed across round trip", i)
		}
		if orig[i].Event != rest[i].Event {
			t.Errorf("flow %d event tag changed", i)
		}
	}
}

func TestCaptureIncludesUnplacedFlows(t *testing.T) {
	net := loadedNetwork(t)
	hosts := net.Graph().NodesOfKind(topology.KindHost)
	f, err := net.AddFlow(flow.Spec{Src: hosts[0], Dst: hosts[1], Demand: topology.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	_ = f
	snap := Capture(net)
	restored, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Registry().Len() != net.Registry().Len() {
		t.Errorf("flow count mismatch with unplaced flow")
	}
	if got := len(restored.Registry().Placed()); got != len(net.Registry().Placed()) {
		t.Errorf("placed count = %d, want %d", got, len(net.Registry().Placed()))
	}
}

func TestReadRejectsWrongVersion(t *testing.T) {
	in := strings.NewReader(`{"version": 99, "nodes": [], "links": [], "flows": []}`)
	if _, err := Read(in); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("Read error = %v, want ErrBadSnapshot", err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Error("Read(garbage) succeeded")
	}
}

func TestRestoreRejectsBadLinkRef(t *testing.T) {
	snap := &Snapshot{
		Version: FormatVersion,
		Nodes:   []Node{{Kind: int(topology.KindHost), Name: "a"}, {Kind: int(topology.KindHost), Name: "b"}},
		Links:   []Link{{From: 0, To: 1, CapacityBps: 1e9}},
		Flows: []Flow{{
			Src: 0, Dst: 1, DemandBps: 1e6, PathLinks: []int{5},
		}},
	}
	if _, err := Restore(snap); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("Restore error = %v, want ErrBadSnapshot", err)
	}
}

func TestRestoreRejectsOverbookedSnapshot(t *testing.T) {
	// Two flows of 800 Mbps on the same 1 Gbps link cannot both replay.
	snap := &Snapshot{
		Version: FormatVersion,
		Nodes:   []Node{{Kind: int(topology.KindHost), Name: "a"}, {Kind: int(topology.KindHost), Name: "b"}},
		Links:   []Link{{From: 0, To: 1, CapacityBps: 1e9}},
		Flows: []Flow{
			{Src: 0, Dst: 1, DemandBps: 8e8, PathLinks: []int{0}},
			{Src: 0, Dst: 1, DemandBps: 8e8, PathLinks: []int{0}},
		},
	}
	if _, err := Restore(snap); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("Restore error = %v, want ErrBadSnapshot (congestion)", err)
	}
}

// TestCaptureIDsKeepsIDs: a snapshot taken with CaptureIDs restores every
// flow under its ID and the registry's counter where it stood, across the
// gaps removed flows leave; an ID out of order is refused.
func TestCaptureIDsKeepsIDs(t *testing.T) {
	net := loadedNetwork(t)
	all := net.Registry().All()
	for _, f := range []*flow.Flow{all[0], all[len(all)/2]} {
		if err := net.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	hosts := net.Graph().NodesOfKind(topology.KindHost)
	if _, err := net.AddFlow(flow.Spec{Src: hosts[0], Dst: hosts[1], Demand: topology.Mbps}); err != nil {
		t.Fatal(err)
	}
	snap := CaptureIDs(net)
	restored, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Registry().NextID(), net.Registry().NextID(); got != want {
		t.Errorf("restored ID counter %d, want %d", got, want)
	}
	orig, rest := net.Registry().All(), restored.Registry().All()
	if len(orig) != len(rest) {
		t.Fatalf("restored %d flows, want %d", len(rest), len(orig))
	}
	for i := range orig {
		if orig[i].ID != rest[i].ID || orig[i].Placed() != rest[i].Placed() {
			t.Fatalf("flow %d restored as %d (placed %v), want %d (placed %v)",
				i, rest[i].ID, rest[i].Placed(), orig[i].ID, orig[i].Placed())
		}
	}

	snap.Flows[1].ID, snap.Flows[2].ID = snap.Flows[2].ID, snap.Flows[1].ID
	if _, err := Restore(snap); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("restore with IDs out of order: %v, want ErrBadSnapshot", err)
	}
}
