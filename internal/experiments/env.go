// Package experiments contains one runner per figure of the paper's
// evaluation (Section V). Each runner builds identical environments per
// compared policy (same seed => same background traffic and same update
// events), simulates them, and reports the same rows/series the paper
// plots, as aligned text tables plus headline numbers for EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"time"

	"netupdate/internal/metrics"
	"netupdate/internal/migration"
	"netupdate/internal/obs"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
	"netupdate/internal/trace"
)

// Options configure an experiment run.
type Options struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
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
	// Tracer, when non-nil, observes every event-level simulation run
	// built from this setup (set via Options.apply).
	Tracer *obs.Tracer
}

// Env is a ready-to-simulate environment: the one genesis, built over
// the whole fabric.
type Env = sim.World

// NewEnv builds the setup's genesis (sim.Genesis.Build): a fat-tree
// filled with background traffic toward the target utilization, and the
// planners over it. Equal setups produce identical environments.
func NewEnv(s Setup) (*Env, error) {
	g := sim.Genesis{K: s.K, Seed: s.Seed, Model: s.Model, Strategy: s.Strategy, Split: s.AllowSplit}
	env, err := g.Build(s.Utilization)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return env, nil
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
	eng.SetTracer(setup.Tracer)
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
