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
	"math"
	"strings"

	"netupdate/internal/topology"
)

// Path is a loop-free sequence of directed links. It has two forms that
// agree on every method:
//
//   - generic: mid is the whole link sequence (NewPath, BFS, Yen and
//     snapshot restore build these);
//   - split: a host up-link, the middle segment mid shared by every host
//     pair of one ordered edge-switch pair, and a host down-link
//     (FatTreeProvider builds these; mid aliases its table).
//
// Equality, containment and indexing are by link sequence, so a split
// path and its NewPath copy are Equal. A Path is four words, so the
// compiler keeps one in registers: a candidate scan copies no memory.
type Path struct {
	mid []topology.LinkID
	// up and down are a split path's access links plus one; 0 marks the
	// generic form.
	up, down int32
}

// NewPath builds a Path from an ordered link sequence. It validates that
// consecutive links chain head-to-tail and returns an error otherwise.
func NewPath(g *topology.Graph, links []topology.LinkID) (Path, error) {
	if len(links) == 0 {
		return Path{}, fmt.Errorf("routing: empty path")
	}
	for i := 1; i < len(links); i++ {
		prev, cur := g.Link(links[i-1]), g.Link(links[i])
		if prev.To != cur.From {
			return Path{}, fmt.Errorf("routing: link %v does not continue %v", cur, prev)
		}
	}
	return Path{mid: append([]topology.LinkID(nil), links...)}, nil
}

// IsZero reports whether the path is the zero value (no links).
func (p Path) IsZero() bool { return p.up == 0 && len(p.mid) == 0 }

// Len returns the number of links (hops) in the path.
func (p Path) Len() int {
	if p.up == 0 {
		return len(p.mid)
	}
	return len(p.mid) + 2
}

// Link returns the path's i-th link, 0 <= i < Len().
func (p Path) Link(i int) topology.LinkID {
	if p.up == 0 {
		return p.mid[i]
	}
	switch i {
	case 0:
		return topology.LinkID(p.up - 1)
	case len(p.mid) + 1:
		return topology.LinkID(p.down - 1)
	}
	return p.mid[i-1]
}

// AppendLinks appends the path's links, in order, to dst and returns the
// extended slice. Appending into a stack buffer walks a path without
// allocating.
func (p Path) AppendLinks(dst []topology.LinkID) []topology.LinkID {
	if p.up == 0 {
		return append(dst, p.mid...)
	}
	dst = append(dst, topology.LinkID(p.up-1))
	dst = append(dst, p.mid...)
	return append(dst, topology.LinkID(p.down-1))
}

// Links returns the path's link IDs. For a generic path the slice is owned
// by the path and must not be modified; for a split path it is a fresh
// copy. Hot loops use Len/Link or AppendLinks instead.
func (p Path) Links() []topology.LinkID {
	if p.up == 0 {
		return p.mid
	}
	return p.AppendLinks(make([]topology.LinkID, 0, p.Len()))
}

// Contains reports whether the path traverses the given link.
func (p Path) Contains(id topology.LinkID) bool {
	if p.up != 0 && (topology.LinkID(p.up-1) == id || topology.LinkID(p.down-1) == id) {
		return true
	}
	for _, l := range p.mid {
		if l == id {
			return true
		}
	}
	return false
}

// MinResidual returns the bottleneck residual bandwidth along the path:
// the largest demand the path can currently accommodate.
func (p Path) MinResidual(g *topology.Graph) topology.Bandwidth {
	if p.up == 0 && len(p.mid) == 0 {
		return 0
	}
	min := topology.Bandwidth(math.MaxInt64)
	if p.up != 0 {
		min = g.Link(topology.LinkID(p.up - 1)).Residual()
		if r := g.Link(topology.LinkID(p.down - 1)).Residual(); r < min {
			min = r
		}
	}
	for _, l := range p.mid {
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

// Format renders the path as a node chain, e.g. "3 -> 17 -> 42".
func (p Path) Format(g *topology.Graph) string {
	n := p.Len()
	if n == 0 {
		return "<empty>"
	}
	var b strings.Builder
	b.WriteString(g.Node(g.Link(p.Link(0)).From).Name)
	for i := 0; i < n; i++ {
		b.WriteString(" -> ")
		b.WriteString(g.Node(g.Link(p.Link(i)).To).Name)
	}
	return b.String()
}

// Equal reports whether two paths traverse exactly the same link
// sequence, whatever their forms.
func (p Path) Equal(q Path) bool {
	if (p.up == 0) == (q.up == 0) {
		if p.up != q.up || p.down != q.down || len(p.mid) != len(q.mid) {
			return false
		}
		for i, l := range p.mid {
			if q.mid[i] != l {
				return false
			}
		}
		return true
	}
	if p.up == 0 {
		p, q = q, p
	}
	// p is split, q generic: q must be p's up-link, middle and down-link.
	if len(q.mid) != len(p.mid)+2 || q.mid[0] != topology.LinkID(p.up-1) ||
		q.mid[len(q.mid)-1] != topology.LinkID(p.down-1) {
		return false
	}
	for i, l := range p.mid {
		if q.mid[i+1] != l {
			return false
		}
	}
	return true
}

// PathSet is a provider's answer for one node pair: Len candidates, read
// with At. Like a Path it is four words, so the compiler keeps a copy in
// registers and a scan's At calls copy no memory.
type PathSet struct {
	// generic points at a generic provider's candidates; nil for a split
	// set.
	generic *[]Path
	// A split set's provider, access links (Path's encoding), and where
	// its n middle segments of hops links each start in ft.mid.
	ft  *FatTreeProvider
	acc struct{ up, down int32 }
	blk struct {
		off     int32
		n, hops int16
	}
}

// Len returns the number of candidates; 0 means the pair is unroutable.
func (s PathSet) Len() int {
	if s.generic != nil {
		return len(*s.generic)
	}
	return int(s.blk.n)
}

// At returns candidate i, 0 <= i < Len().
func (s PathSet) At(i int) Path {
	if s.generic != nil {
		return (*s.generic)[i]
	}
	if uint(i) >= uint(s.blk.n) {
		panic("routing: PathSet.At index out of range")
	}
	lo := int(s.blk.off) + i*int(s.blk.hops)
	return Path{mid: s.ft.mid[lo : lo+int(s.blk.hops) : lo+int(s.blk.hops)], up: s.acc.up, down: s.acc.down}
}

// Provider enumerates the feasible path set P(f) between two nodes.
// Implementations must return the same set (same order) for the same pair,
// so that callers can rely on deterministic behaviour under a fixed seed.
type Provider interface {
	// Paths returns all candidate paths from src to dst. The paths'
	// links are owned by the provider and must not be modified. An empty
	// set means the pair is unroutable.
	Paths(src, dst topology.NodeID) PathSet
}
