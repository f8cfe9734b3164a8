package routing

import (
	"strings"
	"testing"

	"netupdate/internal/topology"
)

// lineGraph builds a -> b -> c with 1 Gbps links and returns the graph,
// node IDs and link IDs.
func lineGraph(t *testing.T) (g *topology.Graph, nodes [3]topology.NodeID, links [2]topology.LinkID) {
	t.Helper()
	g = topology.NewGraph()
	nodes[0] = g.AddNode(topology.KindHost, "a")
	nodes[1] = g.AddNode(topology.KindEdgeSwitch, "b")
	nodes[2] = g.AddNode(topology.KindHost, "c")
	var err error
	if links[0], err = g.AddLink(nodes[0], nodes[1], topology.Gbps); err != nil {
		t.Fatal(err)
	}
	if links[1], err = g.AddLink(nodes[1], nodes[2], topology.Gbps); err != nil {
		t.Fatal(err)
	}
	return g, nodes, links
}

func TestNewPath(t *testing.T) {
	g, nodes, links := lineGraph(t)

	p, err := NewPath(g, links[:])
	if err != nil {
		t.Fatalf("NewPath: %v", err)
	}
	if src, dst := ends(g, p); src != nodes[0] || dst != nodes[2] {
		t.Errorf("endpoints = %v -> %v, want %v -> %v", src, dst, nodes[0], nodes[2])
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d, want 2", p.Len())
	}
	if p.IsZero() {
		t.Error("IsZero() = true for non-empty path")
	}

	if _, err := NewPath(g, nil); err == nil {
		t.Error("NewPath(empty) succeeded, want error")
	}
	// Links out of order do not chain.
	if _, err := NewPath(g, []topology.LinkID{links[1], links[0]}); err == nil {
		t.Error("NewPath(unchained) succeeded, want error")
	}
}

func TestNewPathCopiesInput(t *testing.T) {
	g, _, links := lineGraph(t)
	in := []topology.LinkID{links[0], links[1]}
	p, err := NewPath(g, in)
	if err != nil {
		t.Fatal(err)
	}
	in[0] = topology.InvalidLink
	if p.Links()[0] != links[0] {
		t.Error("mutating input slice changed the path")
	}
}

func TestPathResidualAndCongestion(t *testing.T) {
	g, _, links := lineGraph(t)
	p, err := NewPath(g, links[:])
	if err != nil {
		t.Fatal(err)
	}
	if got := p.MinResidual(g); got != topology.Gbps {
		t.Errorf("MinResidual = %v, want 1Gbps", got)
	}
	if !p.Fits(g, topology.Gbps) {
		t.Error("Fits(1Gbps) = false, want true")
	}

	if err := g.Reserve(links[1], 800*topology.Mbps); err != nil {
		t.Fatal(err)
	}
	if got := p.MinResidual(g); got != 200*topology.Mbps {
		t.Errorf("MinResidual = %v, want 200Mbps", got)
	}
	if p.Fits(g, 300*topology.Mbps) {
		t.Error("Fits(300Mbps) = true, want false")
	}
}

func TestPathContainsAndEqual(t *testing.T) {
	g, _, links := lineGraph(t)
	p, err := NewPath(g, links[:])
	if err != nil {
		t.Fatal(err)
	}
	short, err := NewPath(g, links[:1])
	if err != nil {
		t.Fatal(err)
	}
	if !p.Contains(links[0]) || !p.Contains(links[1]) {
		t.Error("Contains missed a member link")
	}
	if short.Contains(links[1]) {
		t.Error("Contains reported a non-member link")
	}
	if !p.Equal(p) {
		t.Error("Equal(self) = false")
	}
	if p.Equal(short) {
		t.Error("Equal(different length) = true")
	}
}

func TestPathFormat(t *testing.T) {
	g, _, links := lineGraph(t)
	p, err := NewPath(g, links[:])
	if err != nil {
		t.Fatal(err)
	}
	got := p.Format(g)
	if !strings.Contains(got, "a") || !strings.Contains(got, "b") || !strings.Contains(got, "c") {
		t.Errorf("Format = %q, want all node names", got)
	}
	if (Path{}).Format(g) != "<empty>" {
		t.Errorf("zero path Format = %q", (Path{}).Format(g))
	}
}

func TestZeroPath(t *testing.T) {
	var p Path
	if !p.IsZero() {
		t.Error("zero path IsZero() = false")
	}
	g := topology.NewGraph()
	if got := p.MinResidual(g); got != 0 {
		t.Errorf("zero path MinResidual = %v, want 0", got)
	}
}
