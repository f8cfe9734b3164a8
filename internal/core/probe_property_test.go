package core

import (
	"math/rand"
	"reflect"
	"testing"

	"netupdate/internal/flow"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/topology"
)

// liveState is everything a probe could disturb on the live network:
// the ledger, the graph's change history and the flow registry.
type liveState struct {
	Epoch     uint64
	Reserved  []topology.Bandwidth
	Version   []uint64
	Down      []bool
	FlowsOn   []int
	Journal   []topology.LinkID
	JournalOK bool
	Registry  flow.Mark
	FlowIDs   []flow.ID
	Paths     [][]topology.LinkID
}

// captureLive snapshots the network; the journal is read from epoch
// since, which must be the same on both sides of a comparison.
func captureLive(n *netstate.Network, since uint64) liveState {
	g, reg := n.Graph(), n.Registry()
	st := liveState{Epoch: g.Epoch(), Registry: reg.Mark()}
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(topology.LinkID(i))
		st.Reserved = append(st.Reserved, l.Reserved())
		st.Version = append(st.Version, l.Version())
		st.Down = append(st.Down, l.Down())
		st.FlowsOn = append(st.FlowsOn, reg.NumFlowsOn(l.ID))
	}
	st.Journal, st.JournalOK = g.AppendChangesSince(nil, since)
	for _, f := range reg.All() {
		st.FlowIDs = append(st.FlowIDs, f.ID)
		st.Paths = append(st.Paths, f.Path().Links())
	}
	return st
}

// requireEqual fails the test unless the live state is field-for-field
// what it was before op.
func (before liveState) requireEqual(t *testing.T, after liveState, op string) {
	t.Helper()
	if reflect.DeepEqual(before, after) {
		return
	}
	bv, av := reflect.ValueOf(before), reflect.ValueOf(after)
	for i := 0; i < bv.NumField(); i++ {
		if !reflect.DeepEqual(bv.Field(i).Interface(), av.Field(i).Interface()) {
			t.Errorf("%s changed live %s:\n before %v\n after  %v",
				op, bv.Type().Field(i).Name, bv.Field(i).Interface(), av.Field(i).Interface())
		}
	}
	t.FailNow()
}

// TestProbeEngineIncrementalOracle drives the incremental probe core
// through random interleavings of submissions, scheduling rounds, link
// faults and repairs, and demands that every estimate it serves — and
// every min-cost pop — matches a from-scratch probe of the live
// network, and that every ProbeAll leaves the whole live state (ledger,
// epoch, versions, journal, registry) exactly as it found it. This is
// the correctness contract of the dirty-set design: the journal, the
// reverse index, and the lazy heap are all invisible to callers except
// in how much work they save — and of the trial bracket, which must
// earn on the live network the isolation a fork gave for free.
func TestProbeEngineIncrementalOracle(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		seed := seed
		t.Run("", func(t *testing.T) {
			runProbeOracle(t, seed, 160)
		})
	}
}

func runProbeOracle(t *testing.T, seed int64, ops int) {
	t.Helper()
	s := newCoreScenario(t, 800*topology.Mbps)
	p := s.planner(FailSkip)
	pe := NewProbeEngine(p)
	rng := rand.New(rand.NewSource(seed))

	hosts := []topology.NodeID{s.a, s.b, s.c, s.d}
	live := make(map[flow.EventID]*Event)
	var order []flow.EventID // insertion order, for stable iteration
	var nextID flow.EventID = 1
	downLinks := make(map[topology.LinkID]bool)

	addEvent := func() {
		n := 1 + rng.Intn(3)
		specs := make([]flow.Spec, n)
		for i := range specs {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			for dst == src {
				dst = hosts[rng.Intn(len(hosts))]
			}
			specs[i] = flow.Spec{
				Src:    src,
				Dst:    dst,
				Demand: topology.Bandwidth(10+rng.Intn(90)) * topology.Mbps,
			}
		}
		ev := NewEvent(nextID, "prop", 0, specs)
		live[nextID] = ev
		order = append(order, nextID)
		nextID++
	}

	// round probes the whole queue, checks every estimate against a
	// fresh oracle probe, checks the min-cost pop, then executes and
	// retires the popped event.
	round := func() {
		if len(order) == 0 {
			return
		}
		evs := make([]*Event, len(order))
		for i, id := range order {
			evs[i] = live[id]
		}
		since := s.g.Epoch() - min(s.g.Epoch(), 64)
		before := captureLive(s.net, since)
		got, err := pe.ProbeAll(evs)
		if err != nil {
			t.Fatalf("seed %d: ProbeAll: %v", seed, err)
		}
		before.requireEqual(t, captureLive(s.net, since), "ProbeAll")
		// Oracle: probe each event from scratch on a fork of the live
		// network, a copy the engine under test has never touched.
		oracle := NewPlanner(migration.NewPlanner(s.net.Fork(), 0), FailSkip)
		for i, ev := range evs {
			want, err := oracle.Probe(ev)
			if err != nil {
				t.Fatalf("seed %d: oracle probe ev%d: %v", seed, ev.ID, err)
			}
			if got[i].Cost != want.Cost || got[i].Feasible != want.Feasible ||
				got[i].Admittable != want.Admittable || got[i].Evals != want.Evals {
				t.Fatalf("seed %d: ev%d incremental estimate %+v, oracle %+v (from-cache=%v)",
					seed, ev.ID, *got[i], *want, got[i].FromCache)
			}
		}
		// The heap must pop the cheapest valid candidate, ties by ID.
		wantID, wantCost := order[0], got[0].Cost
		for i, id := range order {
			if got[i].Cost < wantCost || (got[i].Cost == wantCost && id < wantID) {
				wantID, wantCost = id, got[i].Cost
			}
		}
		id, cost, ok := pe.CheapestValid()
		if !ok {
			t.Fatalf("seed %d: CheapestValid found nothing with %d live events", seed, len(order))
		}
		if id != wantID || cost != wantCost {
			t.Fatalf("seed %d: CheapestValid = (ev%d, %v), oracle min = (ev%d, %v)",
				seed, id, cost, wantID, wantCost)
		}
		// Execute the winner against the live network and retire it.
		if _, err := p.Execute(live[id]); err != nil {
			t.Fatalf("seed %d: execute ev%d: %v", seed, id, err)
		}
		pe.Forget(id)
		delete(live, id)
		for i, oid := range order {
			if oid == id {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
	}

	// failLink mirrors the fault layer: mark the link down, withdraw the
	// flows it disrupted, and resubmit their specs as a repair event.
	failLink := func() {
		id := topology.LinkID(rng.Intn(s.g.NumLinks()))
		if downLinks[id] {
			return
		}
		affected, _ := s.net.FailLinks([]topology.LinkID{id})
		downLinks[id] = true
		var specs []flow.Spec
		for _, f := range affected {
			specs = append(specs, flow.Spec{Src: f.Src, Dst: f.Dst, Demand: f.Demand})
			if err := s.net.Remove(f); err != nil {
				t.Fatalf("seed %d: remove disrupted flow: %v", seed, err)
			}
		}
		if len(specs) > 0 {
			ev := NewEvent(nextID, "repair", 0, specs)
			live[nextID] = ev
			order = append(order, nextID)
			nextID++
		}
	}

	repairLink := func() {
		// Repair the lowest-ID down link so runs with one seed replay
		// identically.
		for id := topology.LinkID(0); int(id) < s.g.NumLinks(); id++ {
			if downLinks[id] {
				s.net.RestoreLinks([]topology.LinkID{id})
				delete(downLinks, id)
				return
			}
		}
	}

	for i := 0; i < ops; i++ {
		switch r := rng.Intn(10); {
		case r < 4:
			addEvent()
		case r < 8:
			round()
		case r < 9:
			failLink()
		default:
			repairLink()
		}
	}
	// Drain: every remaining event must still match the oracle.
	for len(order) > 0 {
		round()
	}

	st := pe.Stats()
	if st.Misses != st.Cold+st.Incremental {
		t.Fatalf("seed %d: stats invariant broken: misses=%d cold=%d incremental=%d",
			seed, st.Misses, st.Cold, st.Incremental)
	}
	if st.Incremental == 0 {
		t.Errorf("seed %d: no incremental re-plans exercised; workload too tame", seed)
	}
	if st.Hits == 0 {
		t.Errorf("seed %d: no cache hits exercised; workload too tame", seed)
	}
}
