package netstate

import (
	"math/rand"
	"testing"

	"netupdate/internal/flow"
	"netupdate/internal/routing"
	"netupdate/internal/rules"
	"netupdate/internal/topology"
)

// TestViewAnswersAsTheNetworkWould drives a View and a twin Network
// through the same seeded placements, moves, withdrawals and link
// failures and repairs — the view with Mint/Claim/Shift/Vacate, the twin
// with AddFlow/Place/Reroute/Withdraw — and requires after every step that each operation succeeded
// on both or on neither, that every link's residual, every flow's path
// and FlowsAcross over random link sets agree, and, at the end, that the
// network under the view was never written. With rule tables attached
// (capacity 6, so they fill) a claim or move must also fail on the view
// exactly when the twin's data plane refuses it.
func TestViewAnswersAsTheNetworkWould(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tables int // rule-table capacity; -1 = no data plane
	}{
		{"no data plane", -1},
		{"rule tables", 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				runViewTwin(t, seed, tc.tables)
			}
		})
	}
}

func runViewTwin(t *testing.T, seed int64, tables int) {
	t.Helper()
	build := func() (*Network, *topology.FatTree) {
		ft, err := topology.NewFatTree(4, topology.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		n := New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.WidestFit{})
		if tables >= 0 {
			if err := n.AttachDataPlane(rules.NewManager(ft.Graph(), tables)); err != nil {
				t.Fatal(err)
			}
		}
		return n, ft
	}
	live, ft := build()
	twin, _ := build()
	hosts := ft.Hosts()
	rng := rand.New(rand.NewSource(seed))
	spec := func() flow.Spec {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		return flow.Spec{Src: src, Dst: dst, Demand: topology.Bandwidth(50+rng.Intn(300)) * topology.Mbps, Size: 1}
	}
	// Background load, placed identically on both networks.
	for i := 0; i < 24; i++ {
		s := spec()
		for _, n := range []*Network{live, twin} {
			f, err := n.AddFlow(s)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := n.PlaceBest(f); err != nil {
				if err := n.Remove(f); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	reserved := make([]topology.Bandwidth, live.Graph().NumLinks())
	for i := range reserved {
		reserved[i] = live.Graph().Link(topology.LinkID(i)).Reserved()
	}
	next := live.Registry().NextID()

	v := NewView(live)
	// viewFlow maps an ID to the flow the view knows it by.
	minted := map[flow.ID]*flow.Flow{}
	viewFlow := func(id flow.ID) *flow.Flow {
		if f, ok := minted[id]; ok {
			return f
		}
		f, err := live.Registry().Get(id)
		if err != nil {
			t.Fatalf("seed %d: flow %d unknown to the view: %v", seed, id, err)
		}
		return f
	}
	candidate := func(f *flow.Flow) routing.Path {
		ps := live.Candidates(f)
		return ps.At(rng.Intn(ps.Len()))
	}
	agree := func(step int, what string, viewErr, twinErr error) {
		t.Helper()
		if (viewErr == nil) != (twinErr == nil) {
			t.Fatalf("seed %d step %d %s: view error %v, network error %v", seed, step, what, viewErr, twinErr)
		}
	}
	for step := 0; step < 300; step++ {
		placed := twin.Registry().Placed()
		switch op := rng.Intn(7); {
		case op == 6: // a link fails or comes back, on both networks
			// Only an idle link fails: the fault layer withdraws the
			// flows a failure disrupts before anything is planned.
			l := topology.LinkID(rng.Intn(twin.Graph().NumLinks()))
			if down := !twin.Graph().Link(l).Down(); !down || twin.Registry().NumFlowsOn(l) == 0 {
				twin.Graph().SetLinkDown(l, down)
				live.Graph().SetLinkDown(l, down)
			}
		case op < 2 || len(placed) == 0: // a new flow, placed
			s := spec()
			tf, err := twin.AddFlow(s)
			if err != nil {
				t.Fatal(err)
			}
			vf := v.Mint(s)
			if vf.ID != tf.ID {
				t.Fatalf("seed %d step %d: minted ID %d, network ID %d", seed, step, vf.ID, tf.ID)
			}
			minted[vf.ID] = vf
			path := candidate(tf)
			agree(step, "place", v.Claim(vf, path), twin.Place(tf, path))
		case op < 4: // move
			tf := placed[rng.Intn(len(placed))]
			path := candidate(tf)
			agree(step, "move", v.Shift(viewFlow(tf.ID), path), twin.Reroute(tf, path))
		default: // withdraw
			tf := placed[rng.Intn(len(placed))]
			agree(step, "withdraw", v.Vacate(viewFlow(tf.ID)), twin.Withdraw(tf))
		}

		for i := 0; i < twin.Graph().NumLinks(); i++ {
			l := topology.LinkID(i)
			if got, want := v.Residual(l), twin.Graph().Link(l).Residual(); got != want {
				t.Fatalf("seed %d step %d: link %d residual %v on the view, %v on the network", seed, step, i, got, want)
			}
		}
		for _, tf := range twin.Registry().All() {
			if got, want := v.PathOf(viewFlow(tf.ID)), tf.Path(); !got.Equal(want) {
				t.Fatalf("seed %d step %d: flow %d on %v in the view, %v in the network", seed, step, tf.ID, got.Links(), want.Links())
			}
		}
		links := []topology.LinkID{
			topology.LinkID(rng.Intn(twin.Graph().NumLinks())),
			topology.LinkID(rng.Intn(twin.Graph().NumLinks())),
		}
		exclude := flow.EventID(rng.Intn(2))
		got, want := v.FlowsAcross(links, exclude), twin.FlowsAcross(links, exclude)
		if len(got) != len(want) {
			t.Fatalf("seed %d step %d: FlowsAcross(%v) = %d flows on the view, %d on the network", seed, step, links, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Fatalf("seed %d step %d: FlowsAcross(%v)[%d] = flow %d on the view, %d on the network", seed, step, links, i, got[i].ID, want[i].ID)
			}
		}
	}

	for i := range reserved {
		if got := live.Graph().Link(topology.LinkID(i)).Reserved(); got != reserved[i] {
			t.Fatalf("seed %d: the view wrote link %d: reserved %v, was %v", seed, i, got, reserved[i])
		}
	}
	if live.Registry().NextID() != next {
		t.Fatalf("seed %d: the view moved the ID counter to %d from %d", seed, live.Registry().NextID(), next)
	}
	v.Reset()
	for i := range reserved {
		if got, want := v.Residual(topology.LinkID(i)), live.Graph().Link(topology.LinkID(i)).Residual(); got != want {
			t.Fatalf("seed %d: after Reset link %d residual %v, network %v", seed, i, got, want)
		}
	}
}
