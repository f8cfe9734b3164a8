package topology

import (
	"errors"
	"testing"
)

func TestSetCapacity(t *testing.T) {
	g, _, _, l := twoNodeGraph(t)

	if err := g.SetCapacity(l, Gbps/2); err != nil {
		t.Fatalf("SetCapacity: %v", err)
	}
	if got := g.Link(l).Capacity; got != Gbps/2 {
		t.Errorf("Capacity = %v, want %v", got, Gbps/2)
	}

	if err := g.SetCapacity(l, -1); !errors.Is(err, ErrNegativeBandwidth) {
		t.Errorf("negative capacity error = %v, want ErrNegativeBandwidth", err)
	}

	// Shrinking below the committed reservation is refused.
	if err := g.Reserve(l, Gbps/4); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if err := g.SetCapacity(l, Gbps/8); !errors.Is(err, ErrInsufficientBandwidth) {
		t.Errorf("shrink-below-reserved error = %v, want ErrInsufficientBandwidth", err)
	}
	if got := g.Link(l).Capacity; got != Gbps/2 {
		t.Errorf("failed SetCapacity mutated the link: capacity %v", got)
	}
}

func TestFatTreePodOf(t *testing.T) {
	for _, k := range []int{4, 6, 8} {
		ft, err := NewFatTree(k, Gbps)
		if err != nil {
			t.Fatalf("NewFatTree(%d): %v", k, err)
		}
		for _, c := range ft.Cores() {
			if got := ft.PodOf(c); got != -1 {
				t.Errorf("k=%d: PodOf(core %d) = %d, want -1", k, c, got)
			}
		}
		for pod := 0; pod < k; pod++ {
			for i := 0; i < k/2; i++ {
				if got := ft.PodOf(ft.Agg(pod, i)); got != pod {
					t.Errorf("k=%d: PodOf(agg %d,%d) = %d, want %d", k, pod, i, got, pod)
				}
				if got := ft.PodOf(ft.Edge(pod, i)); got != pod {
					t.Errorf("k=%d: PodOf(edge %d,%d) = %d, want %d", k, pod, i, got, pod)
				}
			}
		}
		for _, h := range ft.Hosts() {
			want, _, _, _ := ft.HostAddr(h)
			if got := ft.PodOf(h); got != want {
				t.Errorf("k=%d: PodOf(host %d) = %d, want %d", k, h, got, want)
			}
		}
		if got := ft.PodOf(NodeID(-1)); got != -1 {
			t.Errorf("k=%d: PodOf(-1) = %d, want -1", k, got)
		}
		if got := ft.PodOf(NodeID(ft.Graph().NumNodes())); got != -1 {
			t.Errorf("k=%d: PodOf(out of range) = %d, want -1", k, got)
		}
	}
}

func TestLeafSpinePodOf(t *testing.T) {
	ls, err := NewLeafSpine(4, 2, 3, Gbps)
	if err != nil {
		t.Fatalf("NewLeafSpine: %v", err)
	}
	if got := ls.NumPods(); got != 4 {
		t.Fatalf("NumPods = %d, want 4", got)
	}
	for s := 0; s < ls.NumSpines; s++ {
		if got := ls.PodOf(ls.Spine(s)); got != -1 {
			t.Errorf("PodOf(spine %d) = %d, want -1", s, got)
		}
	}
	for l := 0; l < ls.NumLeaves; l++ {
		if got := ls.PodOf(ls.Leaf(l)); got != l {
			t.Errorf("PodOf(leaf %d) = %d, want %d", l, got, l)
		}
		for h := 0; h < ls.HostsPerLeaf; h++ {
			if got := ls.PodOf(ls.Host(l, h)); got != l {
				t.Errorf("PodOf(host %d,%d) = %d, want %d", l, h, got, l)
			}
		}
	}
	if got := ls.PodOf(NodeID(-1)); got != -1 {
		t.Errorf("PodOf(-1) = %d, want -1", got)
	}
	if got := ls.PodOf(NodeID(ls.Graph().NumNodes())); got != -1 {
		t.Errorf("PodOf(out of range) = %d, want -1", got)
	}
}
