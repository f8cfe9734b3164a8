package flow

import (
	"errors"
	"testing"
	"testing/quick"

	"netupdate/internal/routing"
	"netupdate/internal/topology"
)

// testNet builds a 3-node line a->b->c and returns the graph plus the
// 2-link path and its prefix (1 link).
func testNet(t *testing.T) (g *topology.Graph, full, prefix routing.Path, hosts [3]topology.NodeID) {
	t.Helper()
	g = topology.NewGraph()
	hosts[0] = g.AddNode(topology.KindHost, "a")
	hosts[1] = g.AddNode(topology.KindEdgeSwitch, "b")
	hosts[2] = g.AddNode(topology.KindHost, "c")
	l1, err := g.AddLink(hosts[0], hosts[1], topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := g.AddLink(hosts[1], hosts[2], topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	if full, err = routing.NewPath(g, []topology.LinkID{l1, l2}); err != nil {
		t.Fatal(err)
	}
	if prefix, err = routing.NewPath(g, []topology.LinkID{l1}); err != nil {
		t.Fatal(err)
	}
	return g, full, prefix, hosts
}

func addFlow(t *testing.T, r *Registry, src, dst topology.NodeID) *Flow {
	t.Helper()
	f, err := r.Add(Spec{Src: src, Dst: dst, Demand: 10 * topology.Mbps, Size: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRegistryAddAssignsIncreasingIDs(t *testing.T) {
	_, _, _, hosts := testNet(t)
	r := NewRegistry()
	var last ID = -1
	for i := 0; i < 5; i++ {
		f := addFlow(t, r, hosts[0], hosts[2])
		if f.ID <= last {
			t.Fatalf("IDs not increasing: %d after %d", f.ID, last)
		}
		last = f.ID
	}
	if r.Len() != 5 {
		t.Errorf("Len = %d, want 5", r.Len())
	}
}

func TestRegistryAddRejectsInvalidSpec(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Add(Spec{Src: 1, Dst: 1, Demand: topology.Mbps}); err == nil {
		t.Error("Add(invalid spec) succeeded")
	}
}

func TestRegistryGet(t *testing.T) {
	_, _, _, hosts := testNet(t)
	r := NewRegistry()
	f := addFlow(t, r, hosts[0], hosts[2])
	got, err := r.Get(f.ID)
	if err != nil || got != f {
		t.Errorf("Get = %v,%v want %v", got, err, f)
	}
	if _, err := r.Get(999); !errors.Is(err, ErrUnknownFlow) {
		t.Errorf("Get(999) error = %v, want ErrUnknownFlow", err)
	}
}

func TestBindUnbindIndexesLinks(t *testing.T) {
	_, full, _, hosts := testNet(t)
	r := NewRegistry()
	f := addFlow(t, r, hosts[0], hosts[2])

	if err := r.Bind(f, full); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if !f.Placed() || !f.Path().Equal(full) {
		t.Error("flow not marked placed on its path")
	}
	for _, l := range full.Links() {
		flows := r.FlowsOn(l)
		if len(flows) != 1 || flows[0] != f {
			t.Errorf("FlowsOn(%v) = %v, want [flow]", l, flows)
		}
		if r.NumFlowsOn(l) != 1 {
			t.Errorf("NumFlowsOn(%v) = %d, want 1", l, r.NumFlowsOn(l))
		}
	}
	if err := r.Bind(f, full); !errors.Is(err, ErrAlreadyPlaced) {
		t.Errorf("double Bind error = %v, want ErrAlreadyPlaced", err)
	}

	if err := r.Unbind(f); err != nil {
		t.Fatalf("Unbind: %v", err)
	}
	if f.Placed() || !f.Path().IsZero() {
		t.Error("flow still placed after Unbind")
	}
	for _, l := range full.Links() {
		if got := r.FlowsOn(l); got != nil {
			t.Errorf("FlowsOn(%v) after Unbind = %v, want nil", l, got)
		}
	}
	if err := r.Unbind(f); !errors.Is(err, ErrNotPlaced) {
		t.Errorf("double Unbind error = %v, want ErrNotPlaced", err)
	}
}

func TestRemove(t *testing.T) {
	_, full, _, hosts := testNet(t)
	r := NewRegistry()
	f := addFlow(t, r, hosts[0], hosts[2])
	if err := r.Bind(f, full); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(f); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := r.Get(f.ID); !errors.Is(err, ErrUnknownFlow) {
		t.Error("flow still retrievable after Remove")
	}
	if got := r.FlowsOn(full.Links()[0]); got != nil {
		t.Errorf("link index retains removed flow: %v", got)
	}
	if err := r.Remove(f); !errors.Is(err, ErrUnknownFlow) {
		t.Errorf("double Remove error = %v, want ErrUnknownFlow", err)
	}
}

func TestBindUnknownFlow(t *testing.T) {
	_, full, _, _ := testNet(t)
	r := NewRegistry()
	ghost := &Flow{ID: 42, Src: 0, Dst: 2, Demand: topology.Mbps}
	if err := r.Bind(ghost, full); !errors.Is(err, ErrUnknownFlow) {
		t.Errorf("Bind(ghost) error = %v, want ErrUnknownFlow", err)
	}
	if err := r.Unbind(ghost); !errors.Is(err, ErrUnknownFlow) {
		t.Errorf("Unbind(ghost) error = %v, want ErrUnknownFlow", err)
	}
}

func TestFlowsOnSortedByID(t *testing.T) {
	_, full, prefix, hosts := testNet(t)
	r := NewRegistry()
	// Bind several flows over the shared first link in scrambled order.
	var flows []*Flow
	for i := 0; i < 10; i++ {
		flows = append(flows, addFlow(t, r, hosts[0], hosts[2]))
	}
	for _, idx := range []int{7, 2, 9, 0, 4, 1, 8, 3, 6, 5} {
		p := full
		if idx%2 == 0 {
			p = prefix
		}
		if err := r.Bind(flows[idx], p); err != nil {
			t.Fatal(err)
		}
	}
	on := r.FlowsOn(full.Links()[0])
	if len(on) != 10 {
		t.Fatalf("FlowsOn = %d flows, want 10", len(on))
	}
	for i := 1; i < len(on); i++ {
		if on[i].ID <= on[i-1].ID {
			t.Fatal("FlowsOn not sorted by ID")
		}
	}
	// Only full-path flows appear on the second link.
	on2 := r.FlowsOn(full.Links()[1])
	if len(on2) != 5 {
		t.Errorf("FlowsOn(second link) = %d flows, want 5", len(on2))
	}
}

func TestAllAndPlaced(t *testing.T) {
	_, full, _, hosts := testNet(t)
	r := NewRegistry()
	f1 := addFlow(t, r, hosts[0], hosts[2])
	f2 := addFlow(t, r, hosts[0], hosts[2])
	if err := r.Bind(f2, full); err != nil {
		t.Fatal(err)
	}
	if all := r.All(); len(all) != 2 || all[0] != f1 || all[1] != f2 {
		t.Errorf("All() = %v", all)
	}
	if placed := r.Placed(); len(placed) != 1 || placed[0] != f2 {
		t.Errorf("Placed() = %v", placed)
	}
}

// Property: for any sequence of bind/unbind operations, the link index
// contains exactly the placed flows.
func TestRegistryIndexConsistency(t *testing.T) {
	_, full, prefix, hosts := testNet(t)
	f := func(ops []bool) bool {
		r := NewRegistry()
		var flows []*Flow
		for i := 0; i < 4; i++ {
			fl, err := r.Add(Spec{Src: hosts[0], Dst: hosts[2], Demand: topology.Mbps})
			if err != nil {
				return false
			}
			flows = append(flows, fl)
		}
		for i, bind := range ops {
			fl := flows[i%len(flows)]
			if bind && !fl.Placed() {
				p := full
				if i%3 == 0 {
					p = prefix
				}
				if err := r.Bind(fl, p); err != nil {
					return false
				}
			} else if !bind && fl.Placed() {
				if err := r.Unbind(fl); err != nil {
					return false
				}
			}
		}
		// Check index == placed set on every link.
		for _, l := range full.Links() {
			for _, fl := range r.FlowsOn(l) {
				if !fl.Placed() || !fl.Path().Contains(l) {
					return false
				}
			}
		}
		for _, fl := range r.Placed() {
			for _, l := range fl.Path().Links() {
				found := false
				for _, g := range r.FlowsOn(l) {
					if g == fl {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestRewindReusesTrialIDs: flows added after a Mark and removed again
// leave no gap once the registry is rewound; rewinding over a flow that
// is still registered panics.
func TestRewindReusesTrialIDs(t *testing.T) {
	_, _, _, hosts := testNet(t)
	r := NewRegistry()
	kept := addFlow(t, r, hosts[0], hosts[2])
	m := r.Mark()

	trial := addFlow(t, r, hosts[0], hosts[2])
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Rewind over a registered trial flow did not panic")
			}
		}()
		r.Rewind(m)
	}()
	if err := r.Remove(trial); err != nil {
		t.Fatal(err)
	}
	r.Rewind(m)
	if r.Mark() != m {
		t.Errorf("position after rewind = %+v, want %+v", r.Mark(), m)
	}
	if next := addFlow(t, r, hosts[0], hosts[2]); next.ID != kept.ID+1 {
		t.Errorf("flow after rewind got ID %d, want %d", next.ID, kept.ID+1)
	}
}
