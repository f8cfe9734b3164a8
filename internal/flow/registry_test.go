package flow

import (
	"errors"
	"math/rand"
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

// TestNumPlacedMatchesPlaced: across a seeded mix of placements,
// migrations (unbind + bind on another path), removals and trial brackets
// (Mark, place new flows and move an existing one, undo, Rewind) the
// running placed count equals len(Placed()) after every step, a bracket
// leaves it where it found it, and a fork carries it over.
func TestNumPlacedMatchesPlaced(t *testing.T) {
	_, full, prefix, hosts := testNet(t)
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRegistry()
		var flows []*Flow
		check := func(step int, what string) {
			t.Helper()
			if got, want := r.NumPlaced(), len(r.Placed()); got != want {
				t.Fatalf("seed %d step %d (%s): NumPlaced = %d, len(Placed()) = %d", seed, step, what, got, want)
			}
		}
		pick := func() *Flow { return flows[rng.Intn(len(flows))] }
		path := func() routing.Path {
			if rng.Intn(2) == 0 {
				return prefix
			}
			return full
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(5); {
			case op == 0 || len(flows) == 0: // place a new flow
				f := addFlow(t, r, hosts[0], hosts[2])
				flows = append(flows, f)
				if err := r.Bind(f, path()); err != nil {
					t.Fatal(err)
				}
				check(step, "place")
			case op == 1: // migrate
				if f := pick(); f.Placed() {
					if err := r.Unbind(f); err != nil {
						t.Fatal(err)
					}
					check(step, "migrate, unbound")
					if err := r.Bind(f, path()); err != nil {
						t.Fatal(err)
					}
				}
				check(step, "migrate")
			case op == 2: // withdraw, or place again
				if f := pick(); f.Placed() {
					if err := r.Unbind(f); err != nil {
						t.Fatal(err)
					}
				} else if err := r.Bind(f, path()); err != nil {
					t.Fatal(err)
				}
				check(step, "withdraw/replace")
			case op == 3: // remove
				i := rng.Intn(len(flows))
				if err := r.Remove(flows[i]); err != nil {
					t.Fatal(err)
				}
				flows = append(flows[:i], flows[i+1:]...)
				check(step, "remove")
			default: // trial and rollback
				before, m := r.NumPlaced(), r.Mark()
				trial := addFlow(t, r, hosts[0], hosts[2])
				if err := r.Bind(trial, path()); err != nil {
					t.Fatal(err)
				}
				victim := pick()
				moved, old := victim.Placed(), victim.Path()
				if moved {
					if err := r.Unbind(victim); err != nil {
						t.Fatal(err)
					}
					if err := r.Bind(victim, path()); err != nil {
						t.Fatal(err)
					}
				}
				check(step, "inside trial")
				if moved {
					if err := r.Unbind(victim); err != nil {
						t.Fatal(err)
					}
					if err := r.Bind(victim, old); err != nil {
						t.Fatal(err)
					}
				}
				if err := r.Remove(trial); err != nil {
					t.Fatal(err)
				}
				r.Rewind(m)
				check(step, "after trial")
				if r.NumPlaced() != before {
					t.Fatalf("seed %d step %d: trial bracket moved NumPlaced %d -> %d", seed, step, before, r.NumPlaced())
				}
			}
		}
		if fork := r.Fork(); fork.NumPlaced() != len(fork.Placed()) || fork.NumPlaced() != r.NumPlaced() {
			t.Errorf("seed %d: fork counts %d placed, lists %d, parent %d", seed, fork.NumPlaced(), len(fork.Placed()), r.NumPlaced())
		}
	}

	// A trial that leaves a placement behind is caught at Rewind.
	r := NewRegistry()
	f := addFlow(t, r, hosts[0], hosts[2])
	m := r.Mark()
	if err := r.Bind(f, full); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Rewind over a placement the trial left behind did not panic")
		}
	}()
	r.Rewind(m)
}
