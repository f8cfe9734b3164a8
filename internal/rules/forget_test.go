package rules_test

import (
	"testing"

	"netupdate/internal/flow"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/rules"
	"netupdate/internal/topology"
)

// TestRemoveForgetsGeneration: a removed flow's rule generation is
// dropped, so the generations track the registered flows, not every flow
// ever placed; a withdrawn flow keeps its generation, so placing it
// again installs a higher one.
func TestRemoveForgetsGeneration(t *testing.T) {
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	n := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.WidestFit{})
	m := rules.NewManager(ft.Graph(), 0)
	if err := n.AttachDataPlane(m); err != nil {
		t.Fatal(err)
	}
	add := func(src, dst topology.NodeID) *flow.Flow {
		f, err := n.AddFlow(flow.Spec{Src: src, Dst: dst, Demand: topology.Mbps, Size: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.PlaceBest(f); err != nil {
			t.Fatal(err)
		}
		return f
	}
	kept := add(ft.Host(0, 0, 0), ft.Host(1, 0, 0))
	if err := n.Withdraw(kept); err != nil {
		t.Fatal(err)
	}
	if _, err := n.PlaceBest(kept); err != nil {
		t.Fatal(err)
	}
	if v := m.CurrentVersion(kept.ID); v != 2 {
		t.Fatalf("withdrawn and placed again: generation %d, want 2", v)
	}

	const cycles = 50
	hosts := ft.Hosts()
	for i := 0; i < cycles; i++ {
		f := add(hosts[i%len(hosts)], hosts[(i+3)%len(hosts)])
		if m.CurrentVersion(f.ID) != 1 {
			t.Fatalf("cycle %d: generation %d after placement, want 1", i, m.CurrentVersion(f.ID))
		}
		if err := n.Remove(f); err != nil {
			t.Fatal(err)
		}
		if v := m.CurrentVersion(f.ID); v != 0 {
			t.Fatalf("cycle %d: removed flow keeps generation %d", i, v)
		}
	}
	if got, want := m.Generations(), n.Registry().Len(); got != want {
		t.Fatalf("manager tracks %d generations after %d place/remove cycles, registry holds %d flows", got, cycles, want)
	}
	if v := m.CurrentVersion(kept.ID); v != 2 {
		t.Fatalf("registered flow's generation %d, want 2", v)
	}
}
