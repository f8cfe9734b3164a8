// Package experiments contains one runner per figure of the paper's
// evaluation (Section V). Each runner builds identical environments per
// compared policy (same seed => same background traffic and same update
// events), simulates them, and reports the same rows/series the paper
// plots, as aligned text tables plus headline numbers for EXPERIMENTS.md.
package experiments

import (
	"errors"
	"fmt"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/flow"
	"netupdate/internal/metrics"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/obs"
	"netupdate/internal/routing"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

// Options configure an experiment run.
type Options struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// Quick shrinks the experiment (smaller fat-tree, fewer events and
	// sweep points) for tests and benchmarks.
	Quick bool
	// Trace, when non-nil, receives lifecycle and round records from
	// every simulated scheduler run. Runs within an experiment share the
	// tracer; each run's leading "run" record delimits its stream.
	Trace *obs.Tracer
}

// apply threads the run-wide tracer into a figure's Setup; call it on
// every Setup that feeds a simulation.
func (o Options) apply(s Setup) Setup {
	s.Tracer = o.Trace
	return s
}

// Setup describes one simulated environment.
type Setup struct {
	// K is the fat-tree arity (paper: 8).
	K int
	// Utilization is the background-traffic target (paper: up to 0.7).
	Utilization float64
	// Model generates background and event traffic.
	Model trace.Model
	// Strategy selects the migration greedy (default density).
	Strategy migration.Strategy
	// AllowSplit enables two-splittable victim migration.
	AllowSplit bool
	// Config is the simulator timing model.
	Config sim.Config
	// Seed drives background fill and event generation.
	Seed int64
	// Churn, when non-nil, turns over background traffic during the run
	// (the "network in flux" of Section IV-A).
	Churn *sim.ChurnConfig
	// StrictFill makes an unreachable Utilization target an error instead
	// of settling for whatever the filler achieved (the default, because
	// very high targets saturate host access links first).
	StrictFill bool
	// Tracer, when non-nil, observes every event-level simulation run
	// built from this setup (set via Options.apply).
	Tracer *obs.Tracer
}

// Env is a ready-to-simulate environment.
type Env struct {
	FatTree    *topology.FatTree
	Net        *netstate.Network
	Gen        *trace.Generator
	Planner    *core.Planner
	Background []*flow.Flow
}

// NewEnv builds a fat-tree, fills background traffic to the target
// utilization and wires up the planners. Equal setups produce identical
// environments.
func NewEnv(s Setup) (*Env, error) {
	if s.K == 0 {
		s.K = 8
	}
	if s.Model == nil {
		s.Model = trace.YahooLike{}
	}
	ft, err := topology.NewFatTree(s.K, topology.Gbps)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	// Background flows are placed with hash-ECMP-like random path choice,
	// like the paper's trace replay: random placement leaves some links
	// much hotter than others, which is what makes migration necessary at
	// 50–90% utilization (with perfectly balanced widest-fit placement the
	// fabric never congests and every experiment degenerates).
	net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(s.Seed+7))
	gen, err := trace.NewGenerator(s.Seed, s.Model, ft.Hosts())
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	var background []*flow.Flow
	if s.Utilization > 0 {
		background, err = trace.FillBackground(net, gen, s.Utilization, 0)
		if err != nil {
			if s.StrictFill || !errors.Is(err, trace.ErrTargetUnreachable) {
				return nil, fmt.Errorf("experiments: fill background to %.2f: %w", s.Utilization, err)
			}
			// Best effort: continue at the utilization actually reached.
		}
	}
	mig := migration.NewPlanner(net, s.Strategy)
	if s.AllowSplit {
		mig.SetAllowSplit(true)
	}
	planner := core.NewPlanner(mig, core.FailSkip)
	return &Env{
		FatTree:    ft,
		Net:        net,
		Gen:        gen,
		Planner:    planner,
		Background: background,
	}, nil
}

// runScheduler builds a fresh environment from setup, generates nEvents
// events with flows in [minFlows, maxFlows], and simulates them under the
// given scheduler, returning the collected metrics.
func runScheduler(setup Setup, mkSched func() sched.Scheduler, nEvents, minFlows, maxFlows int) (*metrics.Collector, error) {
	env, err := NewEnv(setup)
	if err != nil {
		return nil, err
	}
	events := env.Gen.Events(nEvents, minFlows, maxFlows)
	eng := sim.NewEngine(env.Planner, mkSched(), setup.Config)
	if setup.Tracer != nil {
		eng.SetTracer(setup.Tracer)
	}
	if setup.Churn != nil {
		eng.EnableChurn(env.Gen, *setup.Churn)
	}
	col, err := eng.Run(events)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s run: %w", mkSched().Name(), err)
	}
	return col, nil
}

// runFlowLevel is runScheduler for the flow-level baseline. The
// flow-level simulator has no rounds or event queue, so it stays
// untraced — Setup.Tracer only observes event-level runs.
func runFlowLevel(setup Setup, nEvents, minFlows, maxFlows int) (*metrics.Collector, error) {
	env, err := NewEnv(setup)
	if err != nil {
		return nil, err
	}
	events := env.Gen.Events(nEvents, minFlows, maxFlows)
	fl := sim.NewFlowLevel(env.Planner, setup.Config)
	col, err := fl.Run(events)
	if err != nil {
		return nil, fmt.Errorf("experiments: flow-level run: %w", err)
	}
	return col, nil
}

// seconds renders a duration as fractional seconds for table cells.
func seconds(d time.Duration) float64 { return d.Seconds() }
