// Package routing computes and selects paths over the network substrate.
//
// It provides the feasible path set P(f) of Section III-A: for every flow f
// the set of candidate routes it may take. For the Fat-Tree testbed this is
// the standard ECMP set (all equal-cost shortest paths); a BFS-based
// enumerator covers arbitrary graphs. Selection policies pick a concrete
// path from P(f) given the current residual bandwidths.
package routing

import (
	"fmt"
	"strings"

	"netupdate/internal/topology"
)

// Path is a loop-free sequence of directed links from a source node to a
// destination node.
type Path struct {
	links []topology.LinkID
	src   topology.NodeID
	dst   topology.NodeID
}

// NewPath builds a Path from an ordered link sequence. It validates that
// consecutive links chain head-to-tail and returns an error otherwise.
func NewPath(g *topology.Graph, links []topology.LinkID) (Path, error) {
	return pathOf(g, append([]topology.LinkID(nil), links...))
}

// pathOf is NewPath over links it takes ownership of, without a copy.
func pathOf(g *topology.Graph, links []topology.LinkID) (Path, error) {
	if len(links) == 0 {
		return Path{}, fmt.Errorf("routing: empty path")
	}
	for i := 1; i < len(links); i++ {
		prev, cur := g.Link(links[i-1]), g.Link(links[i])
		if prev.To != cur.From {
			return Path{}, fmt.Errorf("routing: link %v does not continue %v", cur, prev)
		}
	}
	return Path{
		links: links,
		src:   g.Link(links[0]).From,
		dst:   g.Link(links[len(links)-1]).To,
	}, nil
}

// IsZero reports whether the path is the zero value (no links).
func (p Path) IsZero() bool { return len(p.links) == 0 }

// Src returns the path's source node.
func (p Path) Src() topology.NodeID { return p.src }

// Dst returns the path's destination node.
func (p Path) Dst() topology.NodeID { return p.dst }

// Len returns the number of links (hops) in the path.
func (p Path) Len() int { return len(p.links) }

// Links returns the path's link IDs. The returned slice is owned by the
// path and must not be modified.
func (p Path) Links() []topology.LinkID { return p.links }

// Contains reports whether the path traverses the given link.
func (p Path) Contains(id topology.LinkID) bool {
	for _, l := range p.links {
		if l == id {
			return true
		}
	}
	return false
}

// MinResidual returns the bottleneck residual bandwidth along the path:
// the largest demand the path can currently accommodate.
func (p Path) MinResidual(g *topology.Graph) topology.Bandwidth {
	if len(p.links) == 0 {
		return 0
	}
	min := g.Link(p.links[0]).Residual()
	for _, l := range p.links[1:] {
		if r := g.Link(l).Residual(); r < min {
			min = r
		}
	}
	return min
}

// Fits reports whether every link on the path has at least demand residual
// bandwidth.
func (p Path) Fits(g *topology.Graph, demand topology.Bandwidth) bool {
	return p.MinResidual(g) >= demand
}

// CongestedLinks returns the links whose residual bandwidth is below the
// demand — the set E^c of Definition 1 for a flow taking this path.
func (p Path) CongestedLinks(g *topology.Graph, demand topology.Bandwidth) []topology.LinkID {
	var out []topology.LinkID
	for _, l := range p.links {
		if g.Link(l).Residual() < demand {
			out = append(out, l)
		}
	}
	return out
}

// Format renders the path as a node chain, e.g. "3 -> 17 -> 42".
func (p Path) Format(g *topology.Graph) string {
	if len(p.links) == 0 {
		return "<empty>"
	}
	var b strings.Builder
	b.WriteString(g.Node(p.src).Name)
	for _, l := range p.links {
		b.WriteString(" -> ")
		b.WriteString(g.Node(g.Link(l).To).Name)
	}
	return b.String()
}

// Equal reports whether two paths traverse exactly the same link sequence.
func (p Path) Equal(q Path) bool {
	if len(p.links) != len(q.links) {
		return false
	}
	for i := range p.links {
		if p.links[i] != q.links[i] {
			return false
		}
	}
	return true
}

// Provider enumerates the feasible path set P(f) between two nodes.
// Implementations must return the same set (same order) for the same pair,
// so that callers can rely on deterministic behaviour under a fixed seed.
type Provider interface {
	// Paths returns all candidate paths from src to dst. The returned
	// slice and its paths are owned by the provider and must not be
	// modified. An empty result means the pair is unroutable.
	Paths(src, dst topology.NodeID) []Path
}
