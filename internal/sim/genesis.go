package sim

import (
	"cmp"
	"errors"
	"fmt"

	"netupdate/internal/core"
	"netupdate/internal/flow"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

// Genesis is the one recipe for a fat-tree world's initial state: the
// state every figure simulates from and every daemon folds its log over.
// Equal geneses build identical worlds. Fabric and Fill are two steps so
// a daemon can shape the empty fabric and open its log in between, and
// skip the fill when a checkpoint restores the placed flows.
type Genesis struct {
	K        int                // fat-tree arity, 1 Gbps links; 0 means the paper's 8
	Seed     int64              // seeds the route selector (at Seed+7)
	Model    trace.Model        // traffic model; nil means trace.YahooLike
	Strategy migration.Strategy // migration greedy; 0 means density
	Split    bool               // two-splittable victim migration
}

// World is a built genesis. Fill sets Gen and Background.
type World struct {
	FatTree    *topology.FatTree
	Net        *netstate.Network
	Planner    *core.Planner
	Gen        *trace.Generator
	Background []*flow.Flow

	model trace.Model
}

// Fabric builds the fat-tree, the empty network and the planner, which
// only holds references and so may precede the fill.
func (g Genesis) Fabric() (*World, error) {
	ft, err := topology.NewFatTree(cmp.Or(g.K, 8), topology.Gbps)
	if err != nil {
		return nil, err
	}
	// Hash-ECMP-like random path choice, like the paper's trace replay,
	// leaves some links much hotter than others: that is what makes
	// migration necessary at 50–90% utilization (with balanced widest-fit
	// placement the fabric never congests and every experiment degenerates).
	net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(g.Seed+7))
	mig := migration.NewPlanner(net, g.Strategy)
	mig.SetAllowSplit(g.Split)
	w := &World{FatTree: ft, Net: net, Planner: core.NewPlanner(mig, core.FailSkip), model: g.Model}
	if w.model == nil {
		w.model = trace.YahooLike{}
	}
	return w, nil
}

// Fill seeds the world's generator with seed over hosts and places its
// flows until utilization reaches target (none when target <= 0). An
// unreachable target is not an error: very high targets saturate host
// access links first, and the world keeps the utilization it reached.
func (w *World) Fill(hosts []topology.NodeID, seed int64, target float64) error {
	gen, err := trace.NewGenerator(seed, w.model, hosts)
	if err != nil {
		return err
	}
	w.Gen = gen
	if target <= 0 {
		return nil
	}
	w.Background, err = trace.FillBackground(w.Net, gen, target, 0)
	if err != nil && !errors.Is(err, trace.ErrTargetUnreachable) {
		return fmt.Errorf("fill background to %.2f: %w", target, err)
	}
	return nil
}

// Build is Fabric, then Fill over every host at Seed: the whole-fabric
// world of the figures.
func (g Genesis) Build(target float64) (*World, error) {
	w, err := g.Fabric()
	if err != nil {
		return nil, err
	}
	if err := w.Fill(w.FatTree.Hosts(), g.Seed, target); err != nil {
		return nil, err
	}
	return w, nil
}
