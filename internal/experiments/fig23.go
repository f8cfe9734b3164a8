package experiments

import (
	"fmt"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/flow"
	"netupdate/internal/metrics"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
)

// toyConfig strips all timing except 1-second installs and 100 Mbps/s
// migration, so results come out in the unit-slot arithmetic of the
// paper's illustrations.
func toyConfig() sim.Config {
	return sim.Config{
		InstallTime:   time.Second,
		MigrationRate: 100 * topology.Mbps,
		PlanEvalTime:  -1, // the toy figures charge no plan time
	}
}

// Fig2 reproduces the illustrative comparison of Fig. 2: three update
// events with 3, 4 and 5 unit flows, scheduled flow-by-flow (interleaved)
// versus as grouped events. The paper's numbers: event-level average ECT
// 22/3 beats flow-level (32/3 in the paper's interleave; 29/3 under plain
// round-robin), with equal tails.
func Fig2(opts Options) (*Report, error) {
	mkEvents := func(ft *topology.FatTree) []*core.Event {
		hosts := ft.Hosts()
		sizes := []int{3, 4, 5}
		events := make([]*core.Event, len(sizes))
		for i, n := range sizes {
			specs := make([]flow.Spec, n)
			for j := range specs {
				specs[j] = flow.Spec{
					Src:    hosts[(i*2)%len(hosts)],
					Dst:    hosts[(i*2+1)%len(hosts)],
					Demand: topology.Mbps,
				}
			}
			events[i] = core.NewEvent(flow.EventID(i+1), "toy", 0, specs)
		}
		return events
	}
	newToyPlanner := func() (*core.Planner, *topology.FatTree, error) {
		ft, err := topology.NewFatTree(4, topology.Gbps)
		if err != nil {
			return nil, nil, err
		}
		net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.WidestFit{})
		return core.NewPlanner(migration.NewPlanner(net, 0), 0), ft, nil
	}

	plEv, ftEv, err := newToyPlanner()
	if err != nil {
		return nil, err
	}
	evEvents := mkEvents(ftEv)
	evCol, err := sim.NewEngine(plEv, sched.FIFO{}, toyConfig()).Run(evEvents)
	if err != nil {
		return nil, err
	}

	plFl, ftFl, err := newToyPlanner()
	if err != nil {
		return nil, err
	}
	flEvents := mkEvents(ftFl)
	flCol, err := sim.NewFlowLevel(plFl, toyConfig()).Run(flEvents)
	if err != nil {
		return nil, err
	}

	table := metrics.NewTable("Fig 2: toy schedule (seconds = unit slots)",
		"event", "flows", "event-level ECT", "flow-level ECT")
	for i := range evEvents {
		table.AddRow(fmt.Sprintf("U%d", i+1), evEvents[i].NumFlows(),
			seconds(evEvents[i].ECT()), seconds(flEvents[i].ECT()))
	}
	table.AddRow("average", "", seconds(evCol.AvgECT()), seconds(flCol.AvgECT()))
	table.AddRow("tail", "", seconds(evCol.TailECT()), seconds(flCol.TailECT()))

	r := &Report{
		Name:        "fig2",
		Description: "flow-level vs event-level update orders (illustrative)",
		Tables:      []*metrics.Table{table},
	}
	r.headline("event-level avg ECT (paper 22/3≈7.33)", evCol.AvgECT().Seconds())
	r.headline("flow-level avg ECT (paper 32/3≈10.67)", flCol.AvgECT().Seconds())
	r.headline("tails equal", boolAsFloat(evCol.TailECT() == flCol.TailECT()))
	r.Notes = append(r.Notes,
		"paper's interleave order yields 32/3; plain round-robin yields 29/3 — same ordering, same conclusion")
	return r, nil
}

// fig3Gadgets builds three independent bottleneck gadgets. Gadget i hosts
// event U_{i+1}: a 1 Gbps flow a->u->v->b whose bottleneck is pre-loaded
// with a victim of the given demand (with a free detour), so admitting the
// event migrates exactly that demand. With 100 Mbps/s migration and 1 s
// installs this reproduces Fig. 3's service times: U1 = 4s cost + 1s exec,
// U2 = U3 = 1s cost + 1s exec.
func fig3Gadgets(victimDemands []topology.Bandwidth) (*core.Planner, []*core.Event, error) {
	g := topology.NewGraph()
	events := make([]*core.Event, len(victimDemands))

	type pending struct {
		spec flow.Spec
		path []topology.LinkID
	}
	var victims []pending

	for i, vd := range victimDemands {
		a := g.AddNode(topology.KindHost, fmt.Sprintf("a%d", i))
		b := g.AddNode(topology.KindHost, fmt.Sprintf("b%d", i))
		c := g.AddNode(topology.KindHost, fmt.Sprintf("c%d", i))
		d := g.AddNode(topology.KindHost, fmt.Sprintf("d%d", i))
		u := g.AddNode(topology.KindEdgeSwitch, fmt.Sprintf("u%d", i))
		v := g.AddNode(topology.KindEdgeSwitch, fmt.Sprintf("v%d", i))
		w := g.AddNode(topology.KindEdgeSwitch, fmt.Sprintf("w%d", i))
		link := func(x, y topology.NodeID) topology.LinkID {
			id, err := g.AddLink(x, y, topology.Gbps)
			if err != nil {
				panic(err) // static construction; cannot fail
			}
			return id
		}
		link(a, u)
		uv := link(u, v)
		link(v, b)
		cu := link(c, u)
		vd2 := link(v, d)
		link(c, w)
		link(w, d)
		victims = append(victims, pending{
			spec: flow.Spec{Src: c, Dst: d, Demand: vd},
			path: []topology.LinkID{cu, uv, vd2},
		})
		events[i] = core.NewEvent(flow.EventID(i+1), "toy", 0, []flow.Spec{
			{Src: a, Dst: b, Demand: topology.Gbps},
		})
	}

	net := netstate.New(g, routing.NewBFSProvider(g, 0), routing.WidestFit{})
	for _, p := range victims {
		f, err := net.AddFlow(p.spec)
		if err != nil {
			return nil, nil, err
		}
		path, err := routing.NewPath(g, p.path)
		if err != nil {
			return nil, nil, err
		}
		if err := net.Place(f, path); err != nil {
			return nil, nil, err
		}
	}
	return core.NewPlanner(migration.NewPlanner(net, 0), 0), events, nil
}

// Fig3 reproduces the illustrative FIFO vs cost-reorder comparison of
// Fig. 3: three events with update costs 4s/1s/1s and 1s execution each.
// FIFO's average ECT is 7s; ordering by cost reduces it to 5s with an
// unchanged 9s tail. LMTF recovers the reordered schedule by sampling.
func Fig3(opts Options) (*Report, error) {
	demands := []topology.Bandwidth{400 * topology.Mbps, 100 * topology.Mbps, 100 * topology.Mbps}
	type outcome struct {
		name string
		ects []time.Duration
		avg  time.Duration
		tail time.Duration
	}
	var outcomes []outcome
	for _, mk := range []func() sched.Scheduler{
		func() sched.Scheduler { return sched.FIFO{} },
		func() sched.Scheduler { return sched.Reorder{} },
		func() sched.Scheduler { return sched.NewLMTF(2, opts.Seed+1) },
		// Smallest-first ties (every event has one flow) and degenerates
		// to FIFO — static size proxies cannot see migration cost, the
		// heterogeneity LMTF's probing orders by.
		func() sched.Scheduler { return sched.SmallestFirst{} },
	} {
		planner, events, err := fig3Gadgets(demands)
		if err != nil {
			return nil, err
		}
		s := mk()
		col, err := sim.NewEngine(planner, s, toyConfig()).Run(events)
		if err != nil {
			return nil, err
		}
		o := outcome{name: s.Name(), avg: col.AvgECT(), tail: col.TailECT()}
		for _, ev := range events {
			o.ects = append(o.ects, ev.ECT())
		}
		outcomes = append(outcomes, o)
	}

	table := metrics.NewTable("Fig 3: toy schedule (seconds)",
		"scheduler", "U1 ECT", "U2 ECT", "U3 ECT", "avg", "tail")
	for _, o := range outcomes {
		table.AddRow(o.name, seconds(o.ects[0]), seconds(o.ects[1]), seconds(o.ects[2]),
			seconds(o.avg), seconds(o.tail))
	}
	r := &Report{
		Name:        "fig3",
		Description: "FIFO vs cost-based reorder (illustrative)",
		Tables:      []*metrics.Table{table},
	}
	r.headline("fifo avg ECT (paper 7)", outcomes[0].avg.Seconds())
	r.headline("reorder avg ECT (paper 5)", outcomes[1].avg.Seconds())
	r.headline("tail unchanged (paper 9)", outcomes[1].tail.Seconds())
	return r, nil
}

func boolAsFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
