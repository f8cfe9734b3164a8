package netstate

import (
	"math/rand"
	"testing"

	"netupdate/internal/flow"
	"netupdate/internal/topology"
)

// TestLinkIndexMatchesBruteForce drives the registry's link index through
// a seeded mix of Add, Bind, Unbind, Remove, Mark/Rewind trial brackets
// and Fork on a k = 4 fabric holding a few hundred flows. After every
// step each link's FlowsOn list must be ID-sorted and equal to a scan of
// Placed(), NumFlowsOn must equal its length, and FlowsAcross over random
// link sets (duplicates included) must equal the brute-force union minus
// the excluded event's flows.
func TestLinkIndexMatchesBruteForce(t *testing.T) {
	n, ft := newTestNetwork(t)
	hosts := ft.Hosts()
	rng := rand.New(rand.NewSource(1))

	add := func(reg *flow.Registry) *flow.Flow {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		f, err := reg.Add(flow.Spec{Src: src, Dst: dst, Demand: topology.Mbps, Event: flow.EventID(rng.Intn(4))})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	bind := func(reg *flow.Registry, f *flow.Flow) {
		paths := n.Candidates(f)
		if err := reg.Bind(f, paths.At(rng.Intn(paths.Len()))); err != nil {
			t.Fatal(err)
		}
	}
	pick := func(fs []*flow.Flow) *flow.Flow {
		if len(fs) == 0 {
			return nil
		}
		return fs[rng.Intn(len(fs))]
	}
	unplaced := func(reg *flow.Registry) []*flow.Flow {
		var out []*flow.Flow
		for _, f := range reg.All() {
			if !f.Placed() {
				out = append(out, f)
			}
		}
		return out
	}

	forks := 0
	for step := 0; step < 1500; step++ {
		reg := n.Registry()
		switch op := rng.Intn(20); {
		case op < 6 && reg.Len() < 300:
			f := add(reg)
			if op < 4 {
				bind(reg, f)
			}
		case op < 10:
			if f := pick(unplaced(reg)); f != nil {
				bind(reg, f)
			}
		case op < 13:
			if f := pick(reg.Placed()); f != nil {
				if err := reg.Unbind(f); err != nil {
					t.Fatal(err)
				}
			}
		case op < 15:
			if f := pick(reg.All()); f != nil {
				if err := reg.Remove(f); err != nil {
					t.Fatal(err)
				}
			}
		case op < 19:
			// An undone admission: place new flows and move an existing
			// one, check the index midway, then undo in reverse.
			var trial []*flow.Flow
			for i := rng.Intn(4); i >= 0; i-- {
				f := add(reg)
				bind(reg, f)
				trial = append(trial, f)
			}
			moved := pick(reg.Placed())
			old := moved.Path()
			if err := reg.Unbind(moved); err != nil {
				t.Fatal(err)
			}
			bind(reg, moved)
			checkLinkIndex(t, n, rng)
			if err := reg.Unbind(moved); err != nil {
				t.Fatal(err)
			}
			if err := reg.Bind(moved, old); err != nil {
				t.Fatal(err)
			}
			for i := len(trial) - 1; i >= 0; i-- {
				if err := reg.Remove(trial[i]); err != nil {
					t.Fatal(err)
				}
			}
		default:
			// Fork and carry on in the fork; the parent must keep its
			// own, untouched index.
			parent := n
			n = n.Fork()
			forks++
			defer checkLinkIndex(t, parent, rand.New(rand.NewSource(int64(step))))
		}
		checkLinkIndex(t, n, rng)
		if t.Failed() {
			t.Fatalf("index diverged at step %d", step)
		}
	}
	if n.Registry().NumPlaced() < 100 || forks == 0 {
		t.Errorf("workload too thin: %d placed, %d forks", n.Registry().NumPlaced(), forks)
	}
}

// checkLinkIndex compares the link index of n's registry with a scan of
// its placed flows.
func checkLinkIndex(t *testing.T, n *Network, rng *rand.Rand) {
	t.Helper()
	reg := n.Registry()
	placed := reg.Placed()
	numLinks := n.Graph().NumLinks()
	want := make([][]*flow.Flow, numLinks)
	for _, f := range placed { // ID order, so every list is ID-sorted
		for _, l := range f.Path().Links() {
			want[l] = append(want[l], f)
		}
	}
	for l := 0; l < numLinks; l++ {
		link := topology.LinkID(l)
		got := reg.FlowsOn(link)
		if !sameFlows(got, want[l]) {
			t.Errorf("FlowsOn(%d) = %v, want %v", l, got, want[l])
		}
		if reg.NumFlowsOn(link) != len(got) {
			t.Errorf("NumFlowsOn(%d) = %d, FlowsOn has %d", l, reg.NumFlowsOn(link), len(got))
		}
	}

	for i := 0; i < 4; i++ {
		links := make([]topology.LinkID, 1+rng.Intn(6))
		for j := range links {
			links[j] = topology.LinkID(rng.Intn(numLinks))
		}
		if rng.Intn(2) == 0 {
			links = append(links, links[rng.Intn(len(links))])
		}
		exclude := flow.EventID(rng.Intn(4))
		var union []*flow.Flow
		for _, f := range placed {
			if exclude != flow.NoEvent && f.Event == exclude {
				continue
			}
			for _, l := range links {
				if f.Path().Contains(l) {
					union = append(union, f)
					break
				}
			}
		}
		if got := n.FlowsAcross(links, exclude); !sameFlows(got, union) {
			t.Errorf("FlowsAcross(%v, %d) = %v, want %v", links, exclude, got, union)
		}
	}
}

// sameFlows reports whether a and b list the same flows in the same order.
func sameFlows(a, b []*flow.Flow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
