package core

import (
	"errors"
	"fmt"
	"time"

	"netupdate/internal/flow"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/topology"
)

// FailPolicy controls what happens when one flow of an event cannot be
// admitted even with migration.
type FailPolicy int

const (
	// FailSkip records the spec in Event.FailedSpecs and continues with
	// the remaining flows. This is the default: at very high utilization
	// some host access links are simply full, and the paper's evaluation
	// keeps running (success probability < 1 in Fig. 1).
	FailSkip FailPolicy = iota + 1
	// FailAbort rolls back the whole event and returns an error, leaving
	// the network exactly as before Execute.
	FailAbort
)

// ErrEventAborted is returned by Execute under FailAbort when any flow of
// the event cannot be admitted.
var ErrEventAborted = errors.New("event aborted: flow not admittable")

// ExecResult reports an executed (or trial-planned) event.
type ExecResult struct {
	// Event is the planned event.
	Event *Event
	// Admitted holds one migration result per successfully admitted flow,
	// in admission order.
	Admitted []*migration.Result
	// Failed counts specs that could not be admitted (FailSkip only).
	Failed int
	// Cost is the realized Cost(U): total migrated traffic across all
	// admissions (Definition 2).
	Cost topology.Bandwidth
	// Evals counts planning work (feasibility evaluations), used for
	// plan-time accounting.
	Evals int
}

// Estimate is a non-committal cost probe of an event against the current
// network state. LMTF compares these across sampled events each round.
type Estimate struct {
	// Cost is Cost(U) as it would be right now.
	Cost topology.Bandwidth
	// Feasible reports whether every flow of the event could be admitted.
	Feasible bool
	// Admittable counts the flows that could be admitted.
	Admittable int
	// Evals counts planning work performed for the probe.
	Evals int
}

// ProbeStats counts the cost probes a Planner has run.
type ProbeStats struct {
	// Probes is the number of trial plans.
	Probes int
	// WallTime is the real (not simulated) time spent inside them.
	WallTime time.Duration
}

// Planner plans and executes update events against a network, one flow at
// a time, delegating per-flow admission (and migration of existing flows)
// to the migration planner.
type Planner struct {
	mig    *migration.Planner
	policy FailPolicy
	probes ProbeStats
}

// NewPlanner wraps a migration planner. policy 0 defaults to FailSkip.
func NewPlanner(mig *migration.Planner, policy FailPolicy) *Planner {
	if policy == 0 {
		policy = FailSkip
	}
	return &Planner{mig: mig, policy: policy}
}

// Network returns the underlying network state.
func (p *Planner) Network() *netstate.Network { return p.mig.Network() }

// Migration returns the per-flow admission planner, for callers (like the
// flow-level baseline) that bypass event grouping.
func (p *Planner) Migration() *migration.Planner { return p.mig }

// Execute admits every flow of the event, committing placements and
// migrations to the network. Under FailSkip, unadmittable flows are
// recorded on the event and skipped; under FailAbort the event is fully
// rolled back and ErrEventAborted returned.
func (p *Planner) Execute(ev *Event) (*ExecResult, error) {
	res, err := p.run(ev, true)
	if err != nil {
		return nil, err
	}
	ev.CostAtExec = res.Cost
	return res, nil
}

// Probe trial-plans the event and rolls everything back, returning the
// cost the event would incur right now. The network is left exactly as
// it was, reservations and flow IDs included (see run). This is the
// "calculate the update cost" step LMTF performs for each sampled
// candidate (Section IV-B), and the only way an event is priced: every
// scheduler and the simulator's co-schedule check call it, so its
// counters (ProbeStats) cover every probe in the system.
func (p *Planner) Probe(ev *Event) (*Estimate, error) {
	start := time.Now()
	res, err := p.run(ev, false)
	p.probes.Probes++
	p.probes.WallTime += time.Since(start)
	if err != nil {
		return nil, err
	}
	return &Estimate{
		Cost:       res.Cost,
		Feasible:   res.Failed == 0,
		Admittable: len(res.Admitted),
		Evals:      res.Evals,
	}, nil
}

// ProbeStats returns the planner's cumulative probe counters.
func (p *Planner) ProbeStats() ProbeStats { return p.probes }

// RollbackExec undoes a committed Execute: each admission's migrations
// are reverted in reverse order, then the event's own flows are withdrawn
// and removed, restoring the network to its exact pre-Execute state. The
// fault layer uses this when rule installs keep timing out after the
// bandwidth-level plan already committed. The event's Flows list is
// cleared; the caller decides how to re-record the specs (typically as
// FailedSpecs).
func (p *Planner) RollbackExec(res *ExecResult) error {
	net := p.mig.Network()
	for i := len(res.Admitted) - 1; i >= 0; i-- {
		if err := p.mig.Rollback(res.Admitted[i]); err != nil {
			return fmt.Errorf("rollback %v: %w", res.Event, err)
		}
	}
	ev := res.Event
	for i := len(ev.Flows) - 1; i >= 0; i-- {
		if err := net.Remove(ev.Flows[i]); err != nil {
			return fmt.Errorf("rollback %v: remove %v: %w", ev, ev.Flows[i], err)
		}
	}
	ev.Flows = nil
	return nil
}

// run admits the event's flows in order and, when commit is set, leaves
// the plan applied. Otherwise it is a trial inside the network's trial
// bracket (netstate.Network.BeginTrial): all admissions are rolled back
// before returning (in reverse order, restoring the exact prior state),
// the event's bookkeeping fields are untouched, and the bracket
// guarantees the trial left no trace — reservations cancelled, flow IDs
// rewound — or panics.
func (p *Planner) run(ev *Event, commit bool) (*ExecResult, error) {
	net := p.mig.Network()
	res := &ExecResult{Event: ev}
	var flows []*flow.Flow
	if !commit {
		net.BeginTrial()
	}

	rollbackAll := func() {
		for i := len(res.Admitted) - 1; i >= 0; i-- {
			if err := p.mig.Rollback(res.Admitted[i]); err != nil {
				panic(fmt.Sprintf("core: event rollback failed: %v", err))
			}
		}
		for i := len(flows) - 1; i >= 0; i-- {
			if err := net.Remove(flows[i]); err != nil {
				panic(fmt.Sprintf("core: event rollback remove failed: %v", err))
			}
		}
		if !commit {
			net.EndTrial()
		}
	}

	for _, spec := range ev.Specs {
		f, err := net.AddFlow(spec)
		if err != nil {
			rollbackAll()
			return nil, fmt.Errorf("%v: register flow: %w", ev, err)
		}
		flows = append(flows, f)

		admit, err := p.mig.Admit(f)
		if admit != nil {
			res.Evals += admit.Evals
		}
		if err != nil {
			switch {
			case !errors.Is(err, migration.ErrCannotAdmit) && !errors.Is(err, netstate.ErrNoFeasiblePath):
				rollbackAll()
				return nil, fmt.Errorf("%v: %w", ev, err)
			case p.policy == FailAbort && commit:
				rollbackAll()
				return nil, fmt.Errorf("%v: %w: %v", ev, ErrEventAborted, err)
			default:
				res.Failed++
				if commit {
					ev.FailedSpecs = append(ev.FailedSpecs, spec)
				}
				// The unplaced flow must not linger in the registry.
				if rmErr := net.Remove(f); rmErr != nil {
					panic(fmt.Sprintf("core: removing unadmitted flow: %v", rmErr))
				}
				flows = flows[:len(flows)-1]
				continue
			}
		}
		res.Admitted = append(res.Admitted, admit)
		res.Cost += admit.MigratedTraffic
	}

	if commit {
		ev.Flows = append(ev.Flows, flows...)
		return res, nil
	}
	rollbackAll()
	return res, nil
}
