package core

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"netupdate/internal/flow"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/topology"
)

// liveState is everything a probe could disturb, and everything Apply
// and Execute must leave equal: the ledger, the down links, the link
// index, the registry (IDs, the ID counter, the placed count) and every
// flow's path.
type liveState struct {
	Reserved  []topology.Bandwidth
	Down      []bool
	LinkIndex [][]flow.ID
	NextID    flow.ID
	NumPlaced int
	FlowIDs   []flow.ID
	Paths     [][]topology.LinkID
}

// captureLive snapshots the network.
func captureLive(n *netstate.Network) liveState {
	g, reg := n.Graph(), n.Registry()
	st := liveState{NextID: reg.NextID(), NumPlaced: reg.NumPlaced()}
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(topology.LinkID(i))
		st.Reserved = append(st.Reserved, l.Reserved())
		st.Down = append(st.Down, l.Down())
		var ids []flow.ID
		for _, f := range reg.FlowsOn(l.ID) {
			ids = append(ids, f.ID)
		}
		st.LinkIndex = append(st.LinkIndex, ids)
	}
	for _, f := range reg.All() {
		st.FlowIDs = append(st.FlowIDs, f.ID)
		st.Paths = append(st.Paths, f.Path().Links())
	}
	return st
}

// forkExecute executes a copy of ev on a fork of the network — a copy
// no probe under test has touched — with a planner configured by cfg
// (nil: the defaults), and returns the fork and the result.
func forkExecute(t *testing.T, n *netstate.Network, cfg func(*migration.Planner), ev *Event) (*netstate.Network, *ExecResult) {
	t.Helper()
	fork := n.Fork()
	mig := migration.NewPlanner(fork, 0)
	if cfg != nil {
		cfg(mig)
	}
	res, err := NewPlanner(mig, FailSkip).Execute(NewEvent(ev.ID, ev.Kind, ev.Arrival, ev.Specs))
	if err != nil {
		t.Fatalf("fork execute %v: %v", ev, err)
	}
	return fork, res
}

// requirePlanIs fails the test unless the plan predicts the execution
// exactly: its Estimate, and for every admitted flow its ID, its path
// and each of its moves (victim, from, to, split or not), in order.
func requirePlanIs(t *testing.T, pl *Plan, res *ExecResult, what string) {
	t.Helper()
	want := Estimate{Cost: res.Cost, Feasible: res.Failed == 0, Admittable: len(res.Admitted), Evals: res.Evals}
	if pl.Estimate != want {
		t.Fatalf("%s: probe %+v, fork execution %+v", what, pl.Estimate, want)
	}
	i := 0
	for _, fp := range pl.flows {
		if fp.failed {
			continue
		}
		adm := res.Admitted[i]
		i++
		if fp.id != adm.Flow.ID || !fp.path.Equal(adm.Path) {
			t.Fatalf("%s: planned flow %d on %v, executed flow %d on %v", what, fp.id, fp.path.Links(), adm.Flow.ID, adm.Path.Links())
		}
		steps := pl.steps[fp.lo:fp.hi]
		if len(steps) != len(adm.Moves) {
			t.Fatalf("%s: flow %d: %d planned moves, %d executed", what, fp.id, len(steps), len(adm.Moves))
		}
		for j, st := range steps {
			mv := adm.Moves[j]
			if st.VictimID() != mv.Flow.ID || !st.From().Equal(mv.From) || !st.To().Equal(mv.To) || st.Split() != mv.Split() {
				t.Fatalf("%s: flow %d move %d: planned %d %v -> %v (split %v), executed %d %v -> %v (split %v)",
					what, fp.id, j, st.VictimID(), st.From().Links(), st.To().Links(), st.Split(),
					mv.Flow.ID, mv.From.Links(), mv.To.Links(), mv.Split())
			}
		}
	}
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

// TestProbeOracleUnderFaults drives Planner.ProbePlan through random
// interleavings of submissions, scheduling rounds, link faults and
// repairs. Every probe must write nothing, and must predict exactly what
// executing the event does on a fork of the live network: the Estimate,
// and every flow's ID, path and moves. Each round applies the cheapest
// event's probed plan on the live network, which must then equal the
// fork that executed it: ledger, link index, registry, paths and IDs.
func TestProbeOracleUnderFaults(t *testing.T) {
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

	// round probes the whole queue, checks every plan against an
	// execution on a fresh fork, then applies the cheapest event's plan
	// (ties by ID) and retires it.
	round := func() {
		if len(order) == 0 {
			return
		}
		var winner *Plan
		id, cost := order[0], topology.Bandwidth(0)
		for i, oid := range order {
			ev := live[oid]
			before := captureLive(s.net)
			got, err := p.ProbePlan(ev)
			if err != nil {
				t.Fatalf("seed %d: probe ev%d: %v", seed, oid, err)
			}
			before.requireEqual(t, captureLive(s.net), "Planner.ProbePlan")
			_, res := forkExecute(t, s.net, nil, ev)
			requirePlanIs(t, got, res, "seed "+itoa(seed)+" ev"+itoa(int64(oid)))
			if i == 0 || got.Cost < cost || (got.Cost == cost && oid < id) {
				id, cost, winner = oid, got.Cost, got
			}
		}
		// Apply the winner's plan on the live network; it must leave it
		// as executing the event leaves a fork.
		fork, _ := forkExecute(t, s.net, nil, live[id])
		if _, err := p.Apply(winner); err != nil {
			t.Fatalf("seed %d: apply ev%d: %v", seed, id, err)
		}
		captureLive(fork).requireEqual(t, captureLive(s.net), "Planner.Apply against a forked Execute")
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

// itoa formats n for failure messages.
func itoa(n int64) string { return strconv.FormatInt(n, 10) }

// loadedFatTree builds one seed's world of
// TestPlanApplyMatchesExecuteOnFatTree: a k = 4 fat-tree loaded to about
// 75 % with 20-200 Mbps background flows, the planner configuration cfg
// (two-splittable migration on, the given desired-path policy), a
// planner over it, and 12 events of 3-12 flows of 50-400 Mbps.
func loadedFatTree(t *testing.T, seed int64, policy migration.DesiredPolicy) (*netstate.Network, func(*migration.Planner), *Planner, []*Event) {
	t.Helper()
	cfg := func(m *migration.Planner) {
		m.SetAllowSplit(true)
		m.SetDesiredPolicy(policy)
	}
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(seed))
	hosts := ft.Hosts()
	rng := rand.New(rand.NewSource(seed))
	spec := func(ev flow.EventID, lo, hi int) flow.Spec {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		return flow.Spec{Src: src, Dst: dst, Demand: topology.Bandwidth(lo+rng.Intn(hi-lo)) * topology.Mbps, Size: 1 << 20, Event: ev}
	}
	for net.Utilization() < 0.75 {
		f, err := net.AddFlow(spec(flow.NoEvent, 20, 200))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.PlaceBest(f); err != nil {
			if err := net.Remove(f); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	mig := migration.NewPlanner(net, 0)
	cfg(mig)
	var events []*Event
	for id := flow.EventID(1); id <= 12; id++ {
		specs := make([]flow.Spec, 3+rng.Intn(10))
		for i := range specs {
			specs[i] = spec(id, 50, 400)
		}
		events = append(events, NewEvent(id, "fat-tree", 0, specs))
	}
	return net, cfg, NewPlanner(mig, FailSkip), events
}

// TestPlanApplyMatchesExecuteOnFatTree holds ProbePlan and Apply to
// Execute on a fork where migrations are common: a k = 4 fat-tree loaded
// to about 75 %, events of 3-12 flows, two-splittable migration on, and
// both desired-path policies. Every plan must predict the fork's
// execution exactly, and applying one must leave the live network equal
// to the fork.
func TestPlanApplyMatchesExecuteOnFatTree(t *testing.T) {
	for _, policy := range []migration.DesiredPolicy{migration.DesiredHash, migration.DesiredWidest} {
		totalMoves, totalSplits := 0, 0
		for seed := int64(1); seed <= 6; seed++ {
			net, cfg, p, events := loadedFatTree(t, seed, policy)
			moves, splits := 0, 0
			for _, ev := range events {
				before := captureLive(net)
				pl, err := p.ProbePlan(ev)
				if err != nil {
					t.Fatal(err)
				}
				before.requireEqual(t, captureLive(net), "Planner.ProbePlan")
				fork, res := forkExecute(t, net, cfg, ev)
				what := "policy " + itoa(int64(policy)) + " seed " + itoa(seed) + " ev" + itoa(int64(ev.ID))
				requirePlanIs(t, pl, res, what)
				if _, err := p.Apply(pl); err != nil {
					t.Fatalf("%s: apply: %v", what, err)
				}
				captureLive(fork).requireEqual(t, captureLive(net), "Planner.Apply against a forked Execute")
				for _, adm := range res.Admitted {
					for _, mv := range adm.Moves {
						moves++
						if mv.Split() {
							splits++
						}
					}
				}
			}
			t.Logf("policy %v seed %d: %d moves, %d splits", policy, seed, moves, splits)
			totalMoves += moves
			totalSplits += splits
		}
		// The widest desired path is rarely congested (see
		// migration.DesiredWidest); the hashed one must exercise both
		// kinds of move.
		if policy == migration.DesiredHash && (totalMoves == 0 || totalSplits == 0) {
			t.Errorf("hashed desired paths: %d moves, %d splits; want both", totalMoves, totalSplits)
		}
	}
}
