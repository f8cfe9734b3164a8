package topology

import "testing"

// forkGraph builds a 3-node line x->y->z with two links.
func forkGraph(t *testing.T) (*Graph, LinkID, LinkID) {
	t.Helper()
	g := NewGraph()
	x := g.AddNode(KindEdgeSwitch, "x")
	y := g.AddNode(KindEdgeSwitch, "y")
	z := g.AddNode(KindEdgeSwitch, "z")
	l1, err := g.AddLink(x, y, Gbps)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := g.AddLink(y, z, Gbps)
	if err != nil {
		t.Fatal(err)
	}
	return g, l1, l2
}

func TestLinkVersionsFollowGlobalEpoch(t *testing.T) {
	g, l1, l2 := forkGraph(t)
	if g.Epoch() != 0 || g.Link(l1).Version() != 0 || g.Link(l2).Version() != 0 {
		t.Fatal("fresh graph must start at epoch 0 with unversioned links")
	}
	if err := g.Reserve(l1, Mbps); err != nil {
		t.Fatal(err)
	}
	if got := g.Link(l1).Version(); got != 1 {
		t.Errorf("l1 version after first reserve = %d, want 1", got)
	}
	if err := g.Release(l1, Mbps); err != nil {
		t.Fatal(err)
	}
	if got := g.Link(l1).Version(); got != 2 {
		t.Errorf("l1 version after release = %d, want 2 (releases bump too)", got)
	}
	if err := g.Reserve(l2, Mbps); err != nil {
		t.Fatal(err)
	}
	// Versions are minted from one global counter: l2's single touch must
	// outrank both of l1's, making max-over-a-set a sound change detector.
	if g.Link(l2).Version() != 3 || g.Epoch() != 3 {
		t.Errorf("l2 version = %d, epoch = %d, want 3, 3", g.Link(l2).Version(), g.Epoch())
	}
	if got := g.MaxVersion([]LinkID{l1, l2}); got != 3 {
		t.Errorf("MaxVersion(l1,l2) = %d, want 3", got)
	}
	if got := g.MaxVersion([]LinkID{l1}); got != 2 {
		t.Errorf("MaxVersion(l1) = %d, want 2", got)
	}
	if got := g.MaxVersion(nil); got != 0 {
		t.Errorf("MaxVersion(nil) = %d, want 0", got)
	}
	// Failed reservations must not mint versions: the state did not change.
	if err := g.Reserve(l1, 2*Gbps); err == nil {
		t.Fatal("overcommit reserve unexpectedly succeeded")
	}
	if g.Epoch() != 3 {
		t.Errorf("epoch after failed reserve = %d, want 3", g.Epoch())
	}
}

func TestGraphForkIsolatesReservations(t *testing.T) {
	g, l1, l2 := forkGraph(t)
	if err := g.Reserve(l1, 100*Mbps); err != nil {
		t.Fatal(err)
	}
	f := g.Fork()
	if f.Epoch() != g.Epoch() || f.Link(l1).Reserved() != 100*Mbps {
		t.Fatal("fork must start as an exact copy of the live ledger")
	}
	// Writes to the fork must not leak into the live graph, and vice versa.
	if err := f.Reserve(l2, 300*Mbps); err != nil {
		t.Fatal(err)
	}
	if got := g.Link(l2).Reserved(); got != 0 {
		t.Errorf("live l2 reserved = %v after fork write, want 0", got)
	}
	if g.Epoch() != 1 {
		t.Errorf("live epoch = %d after fork write, want 1", g.Epoch())
	}
	if err := g.Reserve(l1, 50*Mbps); err != nil {
		t.Fatal(err)
	}
	if got := f.Link(l1).Reserved(); got != 100*Mbps {
		t.Errorf("fork l1 reserved = %v after live write, want 100Mbps", got)
	}
}

// TestTrialBracketLeavesNoTrace: Reserve/Release pairs inside a trial
// move bandwidth (and still enforce capacity) but mint no epoch, version
// or journal entry; an unbalanced or nested bracket panics.
func TestTrialBracketLeavesNoTrace(t *testing.T) {
	g, l1, l2 := forkGraph(t)
	if err := g.Reserve(l1, 100*Mbps); err != nil {
		t.Fatal(err)
	}
	epoch, v1, v2 := g.Epoch(), g.Link(l1).Version(), g.Link(l2).Version()

	g.BeginTrial()
	if err := g.Reserve(l1, 200*Mbps); err != nil {
		t.Fatal(err)
	}
	if err := g.Reserve(l2, 300*Mbps); err != nil {
		t.Fatal(err)
	}
	if got := g.Link(l1).Reserved(); got != 300*Mbps {
		t.Errorf("trial reserve invisible to the trial: l1 reserved %v, want 300Mbps", got)
	}
	if err := g.Reserve(l1, 2*Gbps); err == nil {
		t.Error("trial reserve past capacity succeeded")
	}
	if err := g.Release(l2, 300*Mbps); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "EndTrial with bandwidth outstanding", g.EndTrial)
	mustPanic(t, "nested BeginTrial", g.BeginTrial)
	if err := g.Release(l1, 200*Mbps); err != nil {
		t.Fatal(err)
	}
	g.EndTrial()

	if g.Epoch() != epoch || g.Link(l1).Version() != v1 || g.Link(l2).Version() != v2 {
		t.Errorf("trial minted history: epoch %d->%d, l1 v%d->v%d, l2 v%d->v%d",
			epoch, g.Epoch(), v1, g.Link(l1).Version(), v2, g.Link(l2).Version())
	}
	if got, ok := g.AppendChangesSince(nil, epoch); !ok || len(got) != 0 {
		t.Errorf("journal after trial = %v, %v; want none", got, ok)
	}
	if g.Link(l1).Reserved() != 100*Mbps || g.Link(l2).Reserved() != 0 {
		t.Errorf("ledger after trial = (%v, %v), want (100Mbps, 0)",
			g.Link(l1).Reserved(), g.Link(l2).Reserved())
	}
	// Outside the bracket changes are recorded again.
	if err := g.Reserve(l2, Mbps); err != nil {
		t.Fatal(err)
	}
	if got, ok := g.AppendChangesSince(nil, epoch); !ok || len(got) != 1 || got[0] != l2 || g.Epoch() != epoch+1 {
		t.Errorf("post-trial change: journal %v, %v, epoch %d; want [%v], true, %d", got, ok, g.Epoch(), l2, epoch+1)
	}
	mustPanic(t, "EndTrial without BeginTrial", g.EndTrial)
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}
