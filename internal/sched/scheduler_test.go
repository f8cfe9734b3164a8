package sched

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"netupdate/internal/core"
	"netupdate/internal/flow"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/topology"
)

// fixture builds the deterministic bottleneck graph used across packages:
//
//	a -> u -> v -> b   (event flow route, 1 Gbps bottleneck u->v)
//	c -> u -> v -> d   (800 Mbps victim) with detour c -> w -> d
//
// Events with demand <= 200 Mbps probe at cost 0; larger demands force the
// 800 Mbps victim to migrate, probing at cost 800 Mbps.
type fixture struct {
	planner *core.Planner
	a, b    topology.NodeID
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	g := topology.NewGraph()
	a := g.AddNode(topology.KindHost, "a")
	b := g.AddNode(topology.KindHost, "b")
	c := g.AddNode(topology.KindHost, "c")
	d := g.AddNode(topology.KindHost, "d")
	u := g.AddNode(topology.KindEdgeSwitch, "u")
	v := g.AddNode(topology.KindEdgeSwitch, "v")
	w := g.AddNode(topology.KindEdgeSwitch, "w")
	link := func(x, y topology.NodeID) topology.LinkID {
		id, err := g.AddLink(x, y, topology.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	link(a, u)
	uv := link(u, v)
	link(v, b)
	cu := link(c, u)
	vd := link(v, d)
	link(c, w)
	link(w, d)

	net := netstate.New(g, routing.NewBFSProvider(g, 0), routing.WidestFit{})
	victim, err := net.AddFlow(flow.Spec{Src: c, Dst: d, Demand: 800 * topology.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	p, err := routing.NewPath(g, []topology.LinkID{cu, uv, vd})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Place(victim, p); err != nil {
		t.Fatal(err)
	}
	return &fixture{
		planner: core.NewPlanner(migration.NewPlanner(net, 0), 0),
		a:       a,
		b:       b,
	}
}

// event returns an update event whose single flow has the given demand.
func (f *fixture) event(id flow.EventID, demand topology.Bandwidth) *core.Event {
	return core.NewEvent(id, "test", 0, []flow.Spec{{Src: f.a, Dst: f.b, Demand: demand}})
}

// cheap events fit the 200 Mbps residual; expensive ones cost a migration.
func (f *fixture) cheap(id flow.EventID) *core.Event     { return f.event(id, 100*topology.Mbps) }
func (f *fixture) expensive(id flow.EventID) *core.Event { return f.event(id, 500*topology.Mbps) }

func TestFIFOPicksHead(t *testing.T) {
	f := newFixture(t)
	q := NewQueue()
	head := f.expensive(1)
	q.Push(head)
	q.Push(f.cheap(2))

	d, err := FIFO{}.Pick(q, f.planner)
	if err != nil {
		t.Fatal(err)
	}
	if d.Head != head {
		t.Error("FIFO did not pick the head")
	}
	if d.Evals != 0 {
		t.Errorf("FIFO Evals = %d, want 0", d.Evals)
	}
	if len(d.Opportunistic) != 0 {
		t.Error("FIFO produced opportunistic events")
	}
	if q.Len() != 2 {
		t.Error("Pick modified the queue")
	}
}

func TestFIFOEmptyQueue(t *testing.T) {
	f := newFixture(t)
	if _, err := (FIFO{}).Pick(NewQueue(), f.planner); !errors.Is(err, ErrEmptyQueue) {
		t.Errorf("error = %v, want ErrEmptyQueue", err)
	}
	if _, err := NewLMTF(2, 1).Pick(NewQueue(), f.planner); !errors.Is(err, ErrEmptyQueue) {
		t.Errorf("LMTF error = %v, want ErrEmptyQueue", err)
	}
	if _, err := NewPLMTF(2, 1).Pick(NewQueue(), f.planner); !errors.Is(err, ErrEmptyQueue) {
		t.Errorf("PLMTF error = %v, want ErrEmptyQueue", err)
	}
	if _, err := (Reorder{}).Pick(NewQueue(), f.planner); !errors.Is(err, ErrEmptyQueue) {
		t.Errorf("Reorder error = %v, want ErrEmptyQueue", err)
	}
}

func TestReorderPicksCheapest(t *testing.T) {
	f := newFixture(t)
	q := NewQueue()
	q.Push(f.expensive(1))
	q.Push(f.expensive(2))
	cheap := f.cheap(3)
	q.Push(cheap)

	d, err := (Reorder{}).Pick(q, f.planner)
	if err != nil {
		t.Fatal(err)
	}
	if d.Head != cheap {
		t.Errorf("Reorder head = %v, want the cheap event", d.Head)
	}
	if d.Evals == 0 {
		t.Error("Reorder Evals = 0, want probing work for the whole queue")
	}
}

func TestReorderTieBreaksByArrival(t *testing.T) {
	f := newFixture(t)
	q := NewQueue()
	first := f.cheap(1)
	q.Push(first)
	q.Push(f.cheap(2))
	d, err := (Reorder{}).Pick(q, f.planner)
	if err != nil {
		t.Fatal(err)
	}
	if d.Head != first {
		t.Error("tie not broken toward earliest arrival")
	}
}

func TestLMTFOvertakesHeavyHead(t *testing.T) {
	f := newFixture(t)
	q := NewQueue()
	q.Push(f.expensive(1))
	cheap := f.cheap(2)
	q.Push(cheap)

	// With only one non-head event, LMTF samples it regardless of seed.
	s := NewLMTF(4, 1)
	d, err := s.Pick(q, f.planner)
	if err != nil {
		t.Fatal(err)
	}
	if d.Head != cheap {
		t.Errorf("LMTF head = %v, want cheap event", d.Head)
	}
	if d.Evals == 0 {
		t.Error("LMTF Evals = 0, want probe work")
	}
}

func TestLMTFKeepsCheapHead(t *testing.T) {
	f := newFixture(t)
	q := NewQueue()
	head := f.cheap(1)
	q.Push(head)
	q.Push(f.expensive(2))
	q.Push(f.expensive(3))

	s := NewLMTF(4, 1)
	d, err := s.Pick(q, f.planner)
	if err != nil {
		t.Fatal(err)
	}
	if d.Head != head {
		t.Errorf("LMTF displaced a cheap head: %v", d.Head)
	}
}

func TestLMTFTiePrefersHead(t *testing.T) {
	f := newFixture(t)
	q := NewQueue()
	head := f.cheap(1)
	q.Push(head)
	q.Push(f.cheap(2))
	q.Push(f.cheap(3))

	s := NewLMTF(4, 99)
	d, err := s.Pick(q, f.planner)
	if err != nil {
		t.Fatal(err)
	}
	if d.Head != head {
		t.Error("equal costs must keep FIFO order (head wins)")
	}
}

func TestLMTFSingleEventQueue(t *testing.T) {
	f := newFixture(t)
	q := NewQueue()
	only := f.expensive(1)
	q.Push(only)
	d, err := NewLMTF(4, 5).Pick(q, f.planner)
	if err != nil {
		t.Fatal(err)
	}
	if d.Head != only {
		t.Error("single-event queue must pick that event")
	}
}

func TestLMTFDefaultAlpha(t *testing.T) {
	s := NewLMTF(0, 1)
	if s.Alpha != DefaultAlpha {
		t.Errorf("Alpha = %d, want %d", s.Alpha, DefaultAlpha)
	}
	if NewPLMTF(0, 1).Alpha() != DefaultAlpha {
		t.Errorf("PLMTF default alpha wrong")
	}
}

func TestLMTFDeterministicUnderSeed(t *testing.T) {
	mk := func() (*fixture, *Queue) {
		f := newFixture(t)
		q := NewQueue()
		for i := 1; i <= 10; i++ {
			if i%2 == 0 {
				q.Push(f.cheap(flow.EventID(i)))
			} else {
				q.Push(f.expensive(flow.EventID(i)))
			}
		}
		return f, q
	}
	f1, q1 := mk()
	f2, q2 := mk()
	s1, s2 := NewLMTF(3, 42), NewLMTF(3, 42)
	for round := 0; round < 5; round++ {
		d1, err := s1.Pick(q1, f1.planner)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := s2.Pick(q2, f2.planner)
		if err != nil {
			t.Fatal(err)
		}
		if d1.Head.ID != d2.Head.ID {
			t.Fatalf("round %d: seeds diverged (%d vs %d)", round, d1.Head.ID, d2.Head.ID)
		}
		q1.Remove(d1.Head)
		q2.Remove(d2.Head)
	}
}

func TestPLMTFOpportunisticOrder(t *testing.T) {
	f := newFixture(t)
	q := NewQueue()
	e1 := f.expensive(1)
	e2 := f.expensive(2)
	cheap := f.cheap(3)
	q.Push(e1)
	q.Push(e2)
	q.Push(cheap)

	// α=4 over 3 events: all are candidates.
	s := NewPLMTF(4, 7)
	d, err := s.Pick(q, f.planner)
	if err != nil {
		t.Fatal(err)
	}
	if d.Head != cheap {
		t.Fatalf("PLMTF head = %v, want cheap event", d.Head)
	}
	if len(d.Opportunistic) != 2 || d.Opportunistic[0].Event != e1 || d.Opportunistic[1].Event != e2 {
		t.Errorf("Opportunistic = %v, want [e1 e2] in arrival order", d.Opportunistic)
	}
	for _, c := range d.Opportunistic {
		if c.AloneAdmittable != 1 {
			t.Errorf("AloneAdmittable = %d, want 1 (single-flow events)", c.AloneAdmittable)
		}
	}
}

func TestPLMTFSingleEventNoOpportunistic(t *testing.T) {
	f := newFixture(t)
	q := NewQueue()
	q.Push(f.cheap(1))
	d, err := NewPLMTF(4, 7).Pick(q, f.planner)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Opportunistic) != 0 {
		t.Errorf("Opportunistic = %v, want empty", d.Opportunistic)
	}
}

func TestSchedulerNames(t *testing.T) {
	if (FIFO{}).Name() != "fifo" {
		t.Error("FIFO name")
	}
	if (Reorder{}).Name() != "reorder" {
		t.Error("Reorder name")
	}
	if NewLMTF(4, 1).Name() != "lmtf(a=4)" {
		t.Error("LMTF name")
	}
	if NewPLMTF(4, 1).Name() != "p-lmtf(a=4)" {
		t.Error("PLMTF name")
	}
}

// TestPickLeavesNetworkUntouched: probing must roll back fully for every
// scheduler.
func TestPickLeavesNetworkUntouched(t *testing.T) {
	for _, mkSched := range []func() Scheduler{
		func() Scheduler { return FIFO{} },
		func() Scheduler { return Reorder{} },
		func() Scheduler { return NewLMTF(2, 3) },
		func() Scheduler { return NewPLMTF(2, 3) },
	} {
		f := newFixture(t)
		g := f.planner.Network().Graph()
		before := make([]topology.Bandwidth, g.NumLinks())
		for i := range before {
			before[i] = g.Link(topology.LinkID(i)).Reserved()
		}
		q := NewQueue()
		q.Push(f.expensive(1))
		q.Push(f.cheap(2))
		s := mkSched()
		if _, err := s.Pick(q, f.planner); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		for i, w := range before {
			if got := g.Link(topology.LinkID(i)).Reserved(); got != w {
				t.Errorf("%s: link %d reserved = %v, want %v", s.Name(), i, got, w)
			}
		}
		if got := f.planner.Network().Registry().Len(); got != 1 {
			t.Errorf("%s: registry len = %d, want 1 (victim only)", s.Name(), got)
		}
	}
}

func TestSampleIndicesProperties(t *testing.T) {
	s := &LMTF{rng: rand.New(rand.NewSource(11))}
	f := func(nRaw, alphaRaw uint8) bool {
		n := int(nRaw%50) + 1
		alpha := int(alphaRaw % 10)
		got := s.sampleIndices(n, alpha)
		if got[0] != 0 {
			return false
		}
		want := alpha + 1
		if n-1 < alpha {
			want = n
		}
		if len(got) != want {
			return false
		}
		seen := map[int]bool{}
		for i, v := range got {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			if i >= 2 && got[i] < got[i-1] {
				return false // tail must be sorted
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPLMTFScanAll(t *testing.T) {
	f := newFixture(t)
	q := NewQueue()
	var events []*core.Event
	for i := 1; i <= 6; i++ {
		ev := f.cheap(flow.EventID(i))
		events = append(events, ev)
		q.Push(ev)
	}
	s := NewPLMTF(2, 5)
	s.scanAll = true
	if s.Name() != "p-lmtf-full(a=2)" {
		t.Errorf("Name = %q", s.Name())
	}
	d, err := s.Pick(q, f.planner)
	if err != nil {
		t.Fatal(err)
	}
	// Every queued event except the head is offered, in arrival order.
	if len(d.Opportunistic) != 5 {
		t.Fatalf("Opportunistic = %d, want 5", len(d.Opportunistic))
	}
	seen := map[*core.Event]bool{d.Head: true}
	idx := 0
	for _, ev := range events {
		if ev == d.Head {
			continue
		}
		if d.Opportunistic[idx].Event != ev {
			t.Fatalf("opportunistic[%d] out of arrival order", idx)
		}
		seen[ev] = true
		idx++
	}
	if len(seen) != 6 {
		t.Error("not all events covered")
	}
	// Unsampled candidates were probed for their baselines: more evals
	// than the sampled variant.
	s2 := NewPLMTF(2, 5)
	d2, err := s2.Pick(q, f.planner)
	if err != nil {
		t.Fatal(err)
	}
	if d.Evals <= d2.Evals {
		t.Errorf("full-scan evals %d not greater than sampled %d", d.Evals, d2.Evals)
	}
}
