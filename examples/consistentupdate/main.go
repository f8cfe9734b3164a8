// Consistent update: watch the data plane during an event-level update.
// The network carries per-switch rule tables (internal/rules); every
// placement and migration is applied as a two-phase per-packet-consistent
// plan (Reitblatt et al., the paper's Section II): install the new
// generation, flip the ingress, then remove the old generation — so
// packets never see a mix of configurations. The example drives an update
// event that forces migrations and reports the rule operations and table
// occupancy behind it, then shows a TCAM-constrained fabric rejecting a
// transition that doesn't have two-generation headroom.
package main

import (
	"errors"
	"fmt"
	"log"

	"netupdate/internal/core"
	"netupdate/internal/flow"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/rules"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("consistentupdate: %v", err)
	}
}

func run() error {
	ft, err := topology.NewFatTree(8, topology.Gbps)
	if err != nil {
		return err
	}
	net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(5))
	dataplane := rules.NewManager(ft.Graph(), 0) // unlimited tables
	if err := net.AttachDataPlane(dataplane); err != nil {
		return err
	}

	gen, err := trace.NewGenerator(2, trace.YahooLike{}, ft.Hosts())
	if err != nil {
		return err
	}
	background, err := trace.FillBackground(net, gen, 0.68, 0)
	if err != nil {
		return err
	}
	fmt.Printf("fabric at %.2f utilization: %d flows, %d rule entries installed with %d rule ops\n",
		net.Utilization(), len(background), dataplane.TotalEntries(), dataplane.Ops())

	// One update event; its admissions and migrations all flow through
	// two-phase plans.
	planner := core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)
	event := gen.Event(1, "demo", 0, 40, 40)
	opsBefore := dataplane.Ops()
	entriesBefore := dataplane.TotalEntries()
	res, err := planner.Execute(event)
	if err != nil {
		return err
	}
	moves := 0
	for _, adm := range res.Admitted {
		moves += len(adm.Moves)
	}
	fmt.Printf("event executed: %d flows admitted, %d migrations, Cost(U)=%v\n",
		len(res.Admitted), moves, res.Cost)
	fmt.Printf("data plane: %d rule ops applied, %d new entries\n",
		dataplane.Ops()-opsBefore, dataplane.TotalEntries()-entriesBefore)

	// Migrated flows went through install -> flip -> remove: their rule
	// generation advanced past 1.
	bumped := 0
	for _, f := range net.Registry().Placed() {
		if dataplane.CurrentVersion(f.ID) > 1 {
			bumped++
		}
	}
	fmt.Printf("%d flows now run a generation > 1 (two-phase migrations)\n", bumped)

	// Now the known cost of per-packet consistency: both generations
	// coexist during a transition, so a full table blocks a move that
	// would fit at steady state.
	tiny, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		return err
	}
	tnet := netstate.New(tiny.Graph(), routing.NewFatTreeProvider(tiny), routing.WidestFit{})
	tdp := rules.NewManager(tiny.Graph(), 1) // one TCAM slot per switch
	if err := tnet.AttachDataPlane(tdp); err != nil {
		return err
	}
	f, err := tnet.AddFlow(flow.Spec{
		Src: tiny.Host(0, 0, 0), Dst: tiny.Host(0, 1, 0), Demand: topology.Mbps,
	})
	if err != nil {
		return err
	}
	paths := tnet.Candidates(f)
	if err := tnet.Place(f, paths.At(0)); err != nil {
		return err
	}
	err = tnet.Reroute(f, paths.At(1))
	if errors.Is(err, rules.ErrTableFull) {
		fmt.Println("TCAM-constrained fabric: two-phase move rejected (no headroom for both generations) — the overhead Katta et al. attack")
	} else if err != nil {
		return err
	} else {
		return fmt.Errorf("expected the constrained move to fail")
	}
	if !f.Placed() || !f.Path().Equal(paths.At(0)) {
		return fmt.Errorf("flow not restored after rejected move")
	}
	fmt.Println("flow remained consistently on its old path throughout")
	return nil
}
