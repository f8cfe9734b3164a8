package topology

import "testing"

// journalGraph builds a 3-node line a->b->c with two links.
func journalGraph(t *testing.T) (*Graph, LinkID, LinkID) {
	t.Helper()
	g := NewGraph()
	a := g.AddNode(KindHost, "a")
	b := g.AddNode(KindEdgeSwitch, "b")
	c := g.AddNode(KindHost, "c")
	ab, err := g.AddLink(a, b, Gbps)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := g.AddLink(b, c, Gbps)
	if err != nil {
		t.Fatal(err)
	}
	return g, ab, bc
}

func TestChangeJournalRecordsMutations(t *testing.T) {
	g, ab, bc := journalGraph(t)

	// No changes yet: any since >= epoch succeeds with no appends.
	if got, ok := g.AppendChangesSince(nil, g.Epoch()); !ok || len(got) != 0 {
		t.Fatalf("AppendChangesSince(epoch) = %v, %v; want empty, true", got, ok)
	}

	base := g.Epoch()
	if err := g.Reserve(ab, 100*Mbps); err != nil {
		t.Fatal(err)
	}
	if err := g.Reserve(bc, 200*Mbps); err != nil {
		t.Fatal(err)
	}
	if !g.SetLinkDown(ab, true) {
		t.Fatal("SetLinkDown reported no change")
	}
	if err := g.Release(bc, 100*Mbps); err != nil {
		t.Fatal(err)
	}

	got, ok := g.AppendChangesSince(nil, base)
	if !ok {
		t.Fatal("journal lost history within capacity")
	}
	want := []LinkID{ab, bc, ab, bc}
	if len(got) != len(want) {
		t.Fatalf("changes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("changes = %v, want %v", got, want)
		}
	}

	// A partial read from the middle sees only the tail.
	got, ok = g.AppendChangesSince(nil, base+2)
	if !ok || len(got) != 2 || got[0] != ab || got[1] != bc {
		t.Fatalf("tail changes = %v, %v; want [%v %v], true", got, ok, ab, bc)
	}
}

func TestChangeJournalOverflowReportsLoss(t *testing.T) {
	g, ab, _ := journalGraph(t)
	base := g.Epoch()
	for i := 0; i < journalCap+10; i++ {
		if err := g.Reserve(ab, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := g.AppendChangesSince(nil, base); ok {
		t.Fatal("journal claimed full coverage past its capacity")
	}
	// The retained window is still fully served.
	got, ok := g.AppendChangesSince(nil, g.Epoch()-journalCap)
	if !ok || len(got) != journalCap {
		t.Fatalf("retained window: len=%d ok=%v, want %d true", len(got), ok, journalCap)
	}
}

func TestChangeJournalOffOnForks(t *testing.T) {
	g, ab, _ := journalGraph(t)
	f := g.Fork()
	base := f.Epoch()
	if err := f.Reserve(ab, 100*Mbps); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.AppendChangesSince(nil, base); ok {
		t.Fatal("fork served journal entries; journaling should be off on forks")
	}
	if f.journal != nil {
		t.Fatal("fork allocated a journal ring")
	}
}
