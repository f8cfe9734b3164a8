package routing

import (
	"testing"

	"netupdate/internal/topology"
)

func newFT(t *testing.T, k int) (*topology.FatTree, *FatTreeProvider) {
	t.Helper()
	ft, err := topology.NewFatTree(k, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	return ft, NewFatTreeProvider(ft)
}

func TestFatTreePathCounts(t *testing.T) {
	const k = 8
	ft, prov := newFT(t, k)
	half := k / 2

	tests := []struct {
		name     string
		src, dst topology.NodeID
		want     int
		wantHops int
	}{
		{"same edge switch", ft.Host(0, 0, 0), ft.Host(0, 0, 1), 1, 2},
		{"same pod", ft.Host(0, 0, 0), ft.Host(0, 1, 0), half, 4},
		{"cross pod", ft.Host(0, 0, 0), ft.Host(5, 2, 3), half * half, 6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			paths := prov.Paths(tt.src, tt.dst)
			if paths.Len() != tt.want {
				t.Fatalf("got %d paths, want %d", paths.Len(), tt.want)
			}
			for _, p := range all(paths) {
				if src, dst := ends(ft.Graph(), p); src != tt.src || dst != tt.dst {
					t.Errorf("path endpoints %v->%v, want %v->%v", src, dst, tt.src, tt.dst)
				}
				if p.Len() != tt.wantHops {
					t.Errorf("path length %d, want %d", p.Len(), tt.wantHops)
				}
			}
		})
	}
}

func TestFatTreePathsDistinct(t *testing.T) {
	ft, prov := newFT(t, 4)
	paths := all(prov.Paths(ft.Host(0, 0, 0), ft.Host(3, 1, 1)))
	for i := range paths {
		for j := i + 1; j < len(paths); j++ {
			if paths[i].Equal(paths[j]) {
				t.Errorf("paths %d and %d identical", i, j)
			}
		}
	}
}

func TestFatTreePathsLoopFree(t *testing.T) {
	ft, prov := newFT(t, 4)
	g := ft.Graph()
	for _, src := range ft.Hosts() {
		for _, dst := range ft.Hosts() {
			if src == dst {
				continue
			}
			for _, p := range all(prov.Paths(src, dst)) {
				seen := map[topology.NodeID]bool{src: true}
				for _, l := range p.Links() {
					to := g.Link(l).To
					if seen[to] {
						t.Fatalf("path %s revisits node %v", p.Format(g), to)
					}
					seen[to] = true
				}
			}
		}
	}
}

func TestFatTreePathsDegenerate(t *testing.T) {
	ft, prov := newFT(t, 4)
	h := ft.Host(0, 0, 0)
	if got := prov.Paths(h, h); got.Len() != 0 {
		t.Errorf("Paths(h,h) = %d paths, want none", got.Len())
	}
	// Switch endpoints are not addressable hosts.
	if got := prov.Paths(ft.Core(0, 0), h); got.Len() != 0 {
		t.Errorf("Paths(core,h) = %d paths, want none", got.Len())
	}
	if got := prov.Paths(h, ft.Agg(1, 0)); got.Len() != 0 {
		t.Errorf("Paths(h,agg) = %d paths, want none", got.Len())
	}
}

func TestFatTreePathsCached(t *testing.T) {
	ft, prov := newFT(t, 4)
	src, dst := ft.Host(0, 0, 0), ft.Host(1, 0, 0)
	a := prov.Paths(src, dst)
	b := prov.Paths(src, dst)
	if a.Len() != b.Len() {
		t.Fatalf("repeated call changed path count: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if !a.At(i).Equal(b.At(i)) {
			t.Errorf("repeated call changed path %d", i)
		}
	}
}

// TestFatTreeCrossPodPathsUseDistinctCores verifies the (k/2)^2 cross-pod
// paths each route over a distinct core switch.
func TestFatTreeCrossPodPathsUseDistinctCores(t *testing.T) {
	ft, prov := newFT(t, 8)
	g := ft.Graph()
	paths := all(prov.Paths(ft.Host(0, 0, 0), ft.Host(7, 3, 3)))
	cores := make(map[topology.NodeID]bool)
	for _, p := range paths {
		var core topology.NodeID = topology.InvalidNode
		for _, l := range p.Links() {
			if g.Node(g.Link(l).To).Kind == topology.KindCoreSwitch {
				core = g.Link(l).To
			}
		}
		if core == topology.InvalidNode {
			t.Fatalf("cross-pod path %s traverses no core switch", p.Format(g))
		}
		if cores[core] {
			t.Errorf("core %v used by multiple paths", core)
		}
		cores[core] = true
	}
	if len(cores) != 16 {
		t.Errorf("distinct cores = %d, want 16", len(cores))
	}
}
