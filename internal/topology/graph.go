package topology

import (
	"fmt"
)

// Graph is a directed multigraph of nodes and capacitated links with exact
// residual-bandwidth bookkeeping. It corresponds to the network
// G = (V, E) of Section III-A of the paper, where each link e_{i,j} carries
// a residual bandwidth c_{i,j}.
//
// Graph is not safe for concurrent mutation; the simulator serializes all
// state changes through a single goroutine (see internal/sim).
type Graph struct {
	nodes []Node
	links []Link
	// out[n] lists the IDs of links leaving node n.
	out [][]LinkID
	// in[n] lists the IDs of links entering node n.
	in [][]LinkID
	// reserved and capacity are the sums over every link, kept by the
	// calls that change a link's share, so Utilization reads them in O(1).
	reserved, capacity Bandwidth
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{}
}

// AddNode appends a node of the given kind and returns its ID.
func (g *Graph) AddNode(kind NodeKind, name string) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Kind: kind, Name: name})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// AddLink adds a directed link from -> to with the given capacity and
// returns its ID. It fails if either endpoint is unknown, the capacity is
// negative, or a link between the ordered pair already exists.
func (g *Graph) AddLink(from, to NodeID, capacity Bandwidth) (LinkID, error) {
	if !g.validNode(from) {
		return InvalidLink, fmt.Errorf("add link: from %d: %w", int(from), ErrUnknownNode)
	}
	if !g.validNode(to) {
		return InvalidLink, fmt.Errorf("add link: to %d: %w", int(to), ErrUnknownNode)
	}
	if capacity < 0 {
		return InvalidLink, fmt.Errorf("add link %d->%d: capacity %d: %w",
			int(from), int(to), int64(capacity), ErrNegativeBandwidth)
	}
	if _, ok := g.LinkBetween(from, to); ok {
		return InvalidLink, fmt.Errorf("add link %d->%d: %w", int(from), int(to), ErrDuplicateLink)
	}
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{ID: id, From: from, To: to, Capacity: capacity})
	g.capacity += capacity
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	return id, nil
}

// AddBiLink adds a pair of directed links (a->b and b->a), each with the
// given capacity, modeling one physical cable. It returns both link IDs.
func (g *Graph) AddBiLink(a, b NodeID, capacity Bandwidth) (ab, ba LinkID, err error) {
	ab, err = g.AddLink(a, b, capacity)
	if err != nil {
		return InvalidLink, InvalidLink, err
	}
	ba, err = g.AddLink(b, a, capacity)
	if err != nil {
		return InvalidLink, InvalidLink, err
	}
	return ab, ba, nil
}

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the number of directed links in the graph.
func (g *Graph) NumLinks() int { return len(g.links) }

// Node returns the node with the given ID. It panics on out-of-range IDs,
// which always indicate a programming error (IDs are only minted by AddNode).
func (g *Graph) Node(id NodeID) Node {
	return g.nodes[id]
}

// Link returns a pointer to the link with the given ID. The pointer remains
// valid until the next AddLink call. It panics on out-of-range IDs.
func (g *Graph) Link(id LinkID) *Link {
	return &g.links[id]
}

// Out returns the IDs of links leaving node n. The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) Out(n NodeID) []LinkID { return g.out[n] }

// In returns the IDs of links entering node n. The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) In(n NodeID) []LinkID { return g.in[n] }

// LinkBetween returns the ID of the directed link from -> to, if present.
// It scans from's outgoing links: a node has few (k in a k-ary fat-tree),
// so the scan costs less than hashing the pair.
func (g *Graph) LinkBetween(from, to NodeID) (LinkID, bool) {
	if !g.validNode(from) {
		return InvalidLink, false
	}
	for _, id := range g.out[from] {
		if g.links[id].To == to {
			return id, true
		}
	}
	return InvalidLink, false
}

// Nodes returns a copy of all nodes in ID order.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// NodesOfKind returns the IDs of all nodes with the given kind, in ID order.
func (g *Graph) NodesOfKind(kind NodeKind) []NodeID {
	var ids []NodeID
	for _, n := range g.nodes {
		if n.Kind == kind {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// Reserve claims bw on the given link, reducing its residual bandwidth.
// It fails with ErrInsufficientBandwidth if the residual is too small and
// with ErrNegativeBandwidth if bw < 0; the link is unchanged on failure.
func (g *Graph) Reserve(id LinkID, bw Bandwidth) error {
	if bw < 0 {
		return fmt.Errorf("reserve on %v: %w", id, ErrNegativeBandwidth)
	}
	l := &g.links[id]
	if l.down {
		return fmt.Errorf("reserve %v on %v: %w", bw, l, ErrLinkDown)
	}
	if l.Residual() < bw {
		return fmt.Errorf("reserve %v on %v (residual %v): %w",
			bw, l, l.Residual(), ErrInsufficientBandwidth)
	}
	l.reserved += bw
	g.reserved += bw
	return nil
}

// Release returns bw previously claimed on the given link. It fails with
// ErrOverRelease if bw exceeds the currently reserved amount, leaving the
// link unchanged.
func (g *Graph) Release(id LinkID, bw Bandwidth) error {
	if bw < 0 {
		return fmt.Errorf("release on %v: %w", id, ErrNegativeBandwidth)
	}
	l := &g.links[id]
	if l.reserved < bw {
		return fmt.Errorf("release %v on %v (reserved %v): %w",
			bw, l, l.reserved, ErrOverRelease)
	}
	l.reserved -= bw
	g.reserved -= bw
	return nil
}

// SetCapacity rewrites a link's capacity, e.g. when a sharded deployment
// splits core-layer links across per-shard worlds. It fails with
// ErrNegativeBandwidth for c < 0 and with ErrInsufficientBandwidth when
// the link already has more than c reserved (shrinking below the
// committed load would make the residual negative). Capacity changes
// after AddLink go through here, so Utilization's totals stay exact.
func (g *Graph) SetCapacity(id LinkID, c Bandwidth) error {
	if c < 0 {
		return fmt.Errorf("set capacity on %v: %w", id, ErrNegativeBandwidth)
	}
	l := &g.links[id]
	if l.reserved > c {
		return fmt.Errorf("set capacity %v on %v (reserved %v): %w",
			c, l, l.reserved, ErrInsufficientBandwidth)
	}
	g.capacity += c - l.Capacity
	l.Capacity = c
	return nil
}

// Utilization returns total reserved bandwidth divided by total capacity
// across all links (0 for an empty graph). This is the "network utilization"
// knob the paper sweeps in its evaluation. It reads the graph's running
// totals, so it costs O(1) however many links there are.
func (g *Graph) Utilization() float64 {
	if g.capacity == 0 {
		return 0
	}
	return float64(g.reserved) / float64(g.capacity)
}

// SwitchUtilization is like Utilization but restricted to switch-to-switch
// links (the network fabric), excluding host access links.
func (g *Graph) SwitchUtilization() float64 {
	var used, total Bandwidth
	for i := range g.links {
		l := &g.links[i]
		if !g.nodes[l.From].Kind.IsSwitch() || !g.nodes[l.To].Kind.IsSwitch() {
			continue
		}
		used += l.reserved
		total += l.Capacity
	}
	if total == 0 {
		return 0
	}
	return float64(used) / float64(total)
}

// SetLinkDown marks a link failed (down=true) or repaired (down=false)
// and reports whether the state actually changed.
func (g *Graph) SetLinkDown(id LinkID, down bool) bool {
	l := &g.links[id]
	if l.down == down {
		return false
	}
	l.down = down
	return true
}

// NumLinksDown counts currently failed links.
func (g *Graph) NumLinksDown() int {
	n := 0
	for i := range g.links {
		if g.links[i].down {
			n++
		}
	}
	return n
}

// IncidentLinks returns every directed link touching node n (outgoing
// then incoming) — the set a switch failure takes down.
func (g *Graph) IncidentLinks(n NodeID) []LinkID {
	out := make([]LinkID, 0, len(g.out[n])+len(g.in[n]))
	out = append(out, g.out[n]...)
	out = append(out, g.in[n]...)
	return out
}

// Fork returns a scratch copy of the graph: the mutable per-link
// reservation state is copied, while the immutable topology (nodes and
// adjacency) is shared with the parent. Reserve/Release on the fork never
// touch the parent.
//
// Fork is on no product path: cost probes plan on a netstate.View and
// write nothing. Its signature is fixed by its two callers, the probe
// property tests (a fork is their reference oracle) and bench/ (which
// times netstate.Network.Fork).
//
// Growing a fork's topology (AddNode/AddLink) is not supported, because
// the shared adjacency slices would alias the parent's.
func (g *Graph) Fork() *Graph {
	links := make([]Link, len(g.links))
	copy(links, g.links)
	return &Graph{
		nodes:    g.nodes,
		links:    links,
		out:      g.out,
		in:       g.in,
		reserved: g.reserved,
		capacity: g.capacity,
	}
}

// validNode reports whether id is in range.
func (g *Graph) validNode(id NodeID) bool {
	return id >= 0 && int(id) < len(g.nodes)
}
