package core

import (
	"errors"
	"fmt"

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
	// Touched aggregates the links the event's admissions read (may
	// contain duplicates); only a tracked trial records it. See
	// migration.Result.Touched.
	Touched []topology.LinkID
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
	// Touched lists the links whose reservation state the probe read
	// (duplicates possible); set on ProbeEngine's cache misses only. While
	// none of them change, re-probing the same event is guaranteed to
	// reproduce this estimate.
	Touched []topology.LinkID
	// FromCache reports that a ProbeEngine answered this estimate from
	// its epoch cache instead of replanning. Purely observational: a hit
	// carries the same Cost/Feasible/Admittable/Evals a fresh probe
	// would, and whether an estimate is a hit is itself deterministic.
	FromCache bool
}

// Planner plans and executes update events against a network, one flow at
// a time, delegating per-flow admission (and migration of existing flows)
// to the migration planner.
type Planner struct {
	mig    *migration.Planner
	policy FailPolicy
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
	res, err := p.run(ev, modeCommit)
	if err != nil {
		return nil, err
	}
	ev.CostAtExec = res.Cost
	return res, nil
}

// Probe trial-plans the event and rolls everything back, returning the
// cost the event would incur right now. The network is left exactly as
// it was — reservations, flow IDs, graph epoch, link versions and change
// journal included (see run). This is the "calculate the update cost"
// step LMTF performs for each sampled candidate (Section IV-B).
func (p *Planner) Probe(ev *Event) (*Estimate, error) {
	res, err := p.run(ev, modeTrial)
	if err != nil {
		return nil, err
	}
	return res.estimate(), nil
}

// estimate condenses a trial run into the Estimate schedulers compare.
func (r *ExecResult) estimate() *Estimate {
	return &Estimate{
		Cost:       r.Cost,
		Feasible:   r.Failed == 0,
		Admittable: len(r.Admitted),
		Evals:      r.Evals,
		Touched:    r.Touched,
	}
}

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

// runMode says what run does with the plan it builds.
type runMode int

const (
	// modeCommit leaves the plan applied.
	modeCommit runMode = iota
	// modeTrial rolls the plan back inside a trial bracket.
	modeTrial
	// modeTrackedTrial is modeTrial that also records the links the plan
	// read in ExecResult.Touched — the read set ProbeEngine caches by.
	modeTrackedTrial
)

// run admits the event's flows in order. In the trial modes it runs
// inside the network's trial bracket (netstate.Network.BeginTrial): all
// admissions are rolled back before returning (in reverse order,
// restoring the exact prior state), the event's bookkeeping fields are
// untouched, and the bracket guarantees the trial left no trace — no
// epoch, link version or journal entry minted, flow IDs rewound — or
// panics. Every cost probe in the system goes through here.
func (p *Planner) run(ev *Event, mode runMode) (*ExecResult, error) {
	net := p.mig.Network()
	res := &ExecResult{Event: ev}
	var flows []*flow.Flow
	commit := mode == modeCommit
	if !commit {
		net.BeginTrial()
		p.mig.SetTrackTouched(mode == modeTrackedTrial)
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
			p.mig.SetTrackTouched(false)
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
			res.Touched = append(res.Touched, admit.Touched...)
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
