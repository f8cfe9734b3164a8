package core

import (
	"math/rand"
	"reflect"
	"testing"

	"netupdate/internal/flow"
	"netupdate/internal/netstate"
	"netupdate/internal/topology"
)

// liveState is everything a probe could disturb on the live network:
// the ledger and the flow registry.
type liveState struct {
	Reserved []topology.Bandwidth
	Down     []bool
	FlowsOn  []int
	Registry flow.Mark
	FlowIDs  []flow.ID
	Paths    [][]topology.LinkID
}

// captureLive snapshots the network.
func captureLive(n *netstate.Network) liveState {
	g, reg := n.Graph(), n.Registry()
	st := liveState{Registry: reg.Mark()}
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(topology.LinkID(i))
		st.Reserved = append(st.Reserved, l.Reserved())
		st.Down = append(st.Down, l.Down())
		st.FlowsOn = append(st.FlowsOn, reg.NumFlowsOn(l.ID))
	}
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

// TestProbeEngineIncrementalOracle drives Planner.Probe through random
// interleavings of submissions, scheduling rounds, link faults and
// repairs, and demands that every estimate matches a from-scratch probe
// on a fork of the live network, and that every probe leaves the whole
// live state (ledger, down links, registry, every flow's path) exactly
// as it found it. This is the contract of the trial bracket, which must
// earn on the live network the isolation a fork gives for free.
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
	// fresh oracle probe, then executes and retires the cheapest event
	// (ties by ID).
	round := func() {
		if len(order) == 0 {
			return
		}
		// Oracle: a fork of the live network, a copy the planner under
		// test has never touched.
		oracle := forkOracle(s)
		id, cost := order[0], topology.Bandwidth(0)
		for i, oid := range order {
			ev := live[oid]
			before := captureLive(s.net)
			got, err := p.Probe(ev)
			if err != nil {
				t.Fatalf("seed %d: probe ev%d: %v", seed, oid, err)
			}
			before.requireEqual(t, captureLive(s.net), "Planner.Probe")
			want, err := oracle.Probe(ev)
			if err != nil {
				t.Fatalf("seed %d: oracle probe ev%d: %v", seed, oid, err)
			}
			if *got != *want {
				t.Fatalf("seed %d: ev%d live estimate %+v, oracle %+v", seed, oid, *got, *want)
			}
			if i == 0 || got.Cost < cost || (got.Cost == cost && oid < id) {
				id, cost = oid, got.Cost
			}
		}
		// Execute the winner against the live network and retire it.
		if _, err := p.Execute(live[id]); err != nil {
			t.Fatalf("seed %d: execute ev%d: %v", seed, id, err)
		}
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
}
