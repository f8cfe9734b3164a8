// Package snapshot serializes network state — topology, placed flows and
// their paths — to JSON and restores it. Snapshots make experiment states
// reproducible artifacts: a loaded fabric can be captured once and
// restored for debugging, and the controller daemon can checkpoint its
// world across restarts.
//
// Bandwidth reservations are not stored explicitly: they are derivable
// (and are re-derived, which re-validates the congestion-free invariant)
// by replaying the placements.
package snapshot

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"netupdate/internal/flow"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/topology"
)

// FormatVersion identifies the snapshot schema.
const FormatVersion = 1

// ErrBadSnapshot is returned when a snapshot fails validation.
var ErrBadSnapshot = errors.New("snapshot: invalid snapshot")

// Node is one serialized graph node.
type Node struct {
	Kind int    `json:"kind"`
	Name string `json:"name"`
}

// Link is one serialized directed link.
type Link struct {
	From        int   `json:"from"`
	To          int   `json:"to"`
	CapacityBps int64 `json:"capacity_bps"`
}

// Flow is one serialized flow, placed or not.
type Flow struct {
	// ID is the flow's registry ID (see Snapshot.NextID).
	ID        int64 `json:"id,omitempty"`
	Src       int   `json:"src"`
	Dst       int   `json:"dst"`
	DemandBps int64 `json:"demand_bps"`
	SizeBytes int64 `json:"size_bytes"`
	Event     int64 `json:"event,omitempty"`
	// PathLinks is the placed route as link indices (nil = unplaced).
	PathLinks []int `json:"path_links,omitempty"`
}

// Snapshot is the serialized world.
type Snapshot struct {
	Version int    `json:"version"`
	Nodes   []Node `json:"nodes"`
	Links   []Link `json:"links"`
	Flows   []Flow `json:"flows"`
	// NextID is the registry's flow-ID counter. When set, Populate gives
	// every flow its captured ID and leaves the counter here, so the
	// restored world mints the IDs the captured one would have — what a
	// logged plan, which names flows by ID, applies against. A snapshot
	// without it (written before IDs were kept) renumbers its flows in
	// order.
	NextID int64 `json:"next_id,omitempty"`
	// DownLinks lists currently failed links by index, so a restored
	// world routes around the same failures the captured one did.
	DownLinks []int `json:"down_links,omitempty"`
}

// Capture serializes the network's graph and flows.
func Capture(net *netstate.Network) *Snapshot { return capture(net, false) }

// CaptureIDs is Capture that also keeps each flow's ID and the
// registry's ID counter, so Populate restores a world that mints the IDs
// the captured one would have. A checkpoint captures this way; a plain
// snapshot, compared across worlds whose flows are numbered apart, does
// not.
func CaptureIDs(net *netstate.Network) *Snapshot { return capture(net, true) }

func capture(net *netstate.Network, ids bool) *Snapshot {
	g := net.Graph()
	snap := &Snapshot{Version: FormatVersion}
	if ids {
		snap.NextID = int64(net.Registry().NextID())
	}
	for _, n := range g.Nodes() {
		snap.Nodes = append(snap.Nodes, Node{Kind: int(n.Kind), Name: n.Name})
	}
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(topology.LinkID(i))
		snap.Links = append(snap.Links, Link{
			From:        int(l.From),
			To:          int(l.To),
			CapacityBps: int64(l.Capacity),
		})
		if l.Down() {
			snap.DownLinks = append(snap.DownLinks, i)
		}
	}
	for _, f := range net.Registry().All() {
		sf := Flow{
			Src:       int(f.Src),
			Dst:       int(f.Dst),
			DemandBps: int64(f.Demand),
			SizeBytes: f.Size,
			Event:     int64(f.Event),
		}
		if ids {
			sf.ID = int64(f.ID)
		}
		if f.Placed() {
			path := f.Path()
			for i := 0; i < path.Len(); i++ {
				sf.PathLinks = append(sf.PathLinks, int(path.Link(i)))
			}
		}
		snap.Flows = append(snap.Flows, sf)
	}
	return snap
}

// Write encodes the snapshot as JSON.
func (s *Snapshot) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("snapshot: encode: %w", err)
	}
	return nil
}

// Read decodes a snapshot from JSON.
func Read(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("snapshot: decode: %w", err)
	}
	if s.Version != FormatVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrBadSnapshot, s.Version, FormatVersion)
	}
	return &s, nil
}

// Restore rebuilds a Network from the snapshot: the graph is
// reconstructed, every flow re-registered, and every placed flow's
// reservations replayed (re-validating the congestion-free invariant).
// The network uses a BFS path provider unless the caller rewires one via
// the returned graph; selector is the netstate default.
func Restore(s *Snapshot) (*netstate.Network, error) {
	g := topology.NewGraph()
	for _, n := range s.Nodes {
		g.AddNode(topology.NodeKind(n.Kind), n.Name)
	}
	for i, l := range s.Links {
		if _, err := g.AddLink(topology.NodeID(l.From), topology.NodeID(l.To),
			topology.Bandwidth(l.CapacityBps)); err != nil {
			return nil, fmt.Errorf("%w: link %d: %v", ErrBadSnapshot, i, err)
		}
	}
	net := netstate.New(g, routing.NewBFSProvider(g, 0), nil)
	if _, err := Populate(net, s); err != nil {
		return nil, err
	}
	return net, nil
}

// Populate restores a snapshot's flows and link failures into an
// existing, flow-free network whose graph must match the snapshot's
// shape (node count, link count, endpoints, capacities). This is the
// checkpoint-recovery path: the daemon rebuilds its world from
// configuration — keeping its own path provider, selector and rule
// tables — and Populate replays the captured state onto it.
//
// The returned slice holds the restored flows in snapshot order, so
// callers can resolve snapshot flow indices (engine release entries
// are recorded that way).
func Populate(net *netstate.Network, s *Snapshot) ([]*flow.Flow, error) {
	g := net.Graph()
	if g.NumNodes() != len(s.Nodes) {
		return nil, fmt.Errorf("%w: graph has %d nodes, snapshot %d", ErrBadSnapshot, g.NumNodes(), len(s.Nodes))
	}
	if g.NumLinks() != len(s.Links) {
		return nil, fmt.Errorf("%w: graph has %d links, snapshot %d", ErrBadSnapshot, g.NumLinks(), len(s.Links))
	}
	if n := len(net.Registry().All()); n != 0 {
		return nil, fmt.Errorf("%w: target network already holds %d flows", ErrBadSnapshot, n)
	}
	for i, sl := range s.Links {
		l := g.Link(topology.LinkID(i))
		if int(l.From) != sl.From || int(l.To) != sl.To || int64(l.Capacity) != sl.CapacityBps {
			return nil, fmt.Errorf("%w: link %d is %v, snapshot says %d->%d cap %d",
				ErrBadSnapshot, i, l, sl.From, sl.To, sl.CapacityBps)
		}
	}
	// Fail links before placing: snapshot flows never cross down links,
	// and placement re-validates that.
	for _, dl := range s.DownLinks {
		if dl < 0 || dl >= g.NumLinks() {
			return nil, fmt.Errorf("%w: down link %d out of range", ErrBadSnapshot, dl)
		}
		g.SetLinkDown(topology.LinkID(dl), true)
	}
	reg := net.Registry()
	flows := make([]*flow.Flow, 0, len(s.Flows))
	for i, sf := range s.Flows {
		if s.NextID > 0 {
			if id := flow.ID(sf.ID); id >= reg.NextID() && id < flow.ID(s.NextID) {
				reg.SkipTo(id)
			} else {
				return nil, fmt.Errorf("%w: flow %d has ID %d, counter at %d of %d", ErrBadSnapshot, i, sf.ID, int64(reg.NextID()), s.NextID)
			}
		}
		f, err := net.AddFlow(flow.Spec{
			Src:    topology.NodeID(sf.Src),
			Dst:    topology.NodeID(sf.Dst),
			Demand: topology.Bandwidth(sf.DemandBps),
			Size:   sf.SizeBytes,
			Event:  flow.EventID(sf.Event),
		})
		if err != nil {
			return nil, fmt.Errorf("%w: flow %d: %v", ErrBadSnapshot, i, err)
		}
		flows = append(flows, f)
		if len(sf.PathLinks) == 0 {
			continue
		}
		links := make([]topology.LinkID, len(sf.PathLinks))
		for j, l := range sf.PathLinks {
			if l < 0 || l >= g.NumLinks() {
				return nil, fmt.Errorf("%w: flow %d references link %d", ErrBadSnapshot, i, l)
			}
			links[j] = topology.LinkID(l)
		}
		path, err := routing.NewPath(g, links)
		if err != nil {
			return nil, fmt.Errorf("%w: flow %d path: %v", ErrBadSnapshot, i, err)
		}
		if err := net.Place(f, path); err != nil {
			return nil, fmt.Errorf("%w: flow %d placement: %v", ErrBadSnapshot, i, err)
		}
	}
	if s.NextID > 0 {
		reg.SkipTo(flow.ID(s.NextID))
	}
	return flows, nil
}
