package core

import (
	"errors"
	"fmt"
	"time"

	"netupdate/internal/flow"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/topology"
)

// FailPolicy names what happens when one flow of an event cannot be
// admitted even with migration. There is one policy, FailSkip; the type
// and NewPlanner's parameter remain because bench/deploy.go passes
// core.FailSkip.
type FailPolicy int

// FailSkip records the spec in Event.FailedSpecs and continues with the
// remaining flows: at very high utilization some host access links are
// simply full, and the paper's evaluation keeps running (success
// probability < 1 in Fig. 1).
const FailSkip FailPolicy = 1

// ExecResult reports an executed event.
type ExecResult struct {
	// Event is the executed event.
	Event *Event
	// Admitted holds one migration result per successfully admitted flow,
	// in admission order.
	Admitted []*migration.Result
	// Failed counts specs that could not be admitted.
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

// Plan is an event planned against the network as it is now, on a
// netstate.View: for each flow the path it takes and the migrations that
// make room for it, in order, and the Estimate they add up to. Apply
// carries it out. A plan is valid until the network changes.
type Plan struct {
	Estimate
	event *Event
	// base is the registry's next flow ID when the plan was made, next
	// the counter after it.
	base, next flow.ID
	// failed counts the specs that cannot be admitted.
	failed int
	flows  []flowPlan
	steps  []migration.Step
}

// flowPlan is one spec's planned admission; its migrations are
// Plan.steps[lo:hi].
type flowPlan struct {
	spec   int
	id     flow.ID
	failed bool
	path   routing.Path
	lo, hi int
	cost   topology.Bandwidth
	evals  int
}

// PlanRecord is a Plan as plain data: what a log keeps of an applied
// plan so that it can be applied again (Planner.PlanOf) without planning
// the event anew.
type PlanRecord struct {
	// Event is the planned event's ID.
	Event flow.EventID
	// Base and Next are the registry's flow-ID counter before and after
	// the plan.
	Base, Next flow.ID
	// Flows holds one entry per spec, in spec order.
	Flows []FlowRecord
}

// FlowRecord is one spec's planned admission in a PlanRecord.
type FlowRecord struct {
	Spec   int
	ID     flow.ID
	Failed bool
	Path   routing.Path
	Cost   topology.Bandwidth
	Evals  int
	// Steps are the migrations that make room for the flow, in order
	// (none for a failed flow).
	Steps []migration.StepRecord
}

// Event returns the planned event.
func (pl *Plan) Event() *Event { return pl.event }

// Record returns the plan as plain data.
func (pl *Plan) Record() PlanRecord {
	r := PlanRecord{Event: pl.event.ID, Base: pl.base, Next: pl.next, Flows: make([]FlowRecord, len(pl.flows))}
	for i, fp := range pl.flows {
		fr := FlowRecord{Spec: fp.spec, ID: fp.id, Failed: fp.failed, Path: fp.path, Cost: fp.cost, Evals: fp.evals}
		if !fp.failed && fp.hi > fp.lo {
			fr.Steps = make([]migration.StepRecord, fp.hi-fp.lo)
			for j := range fr.Steps {
				fr.Steps[j] = pl.steps[fp.lo+j].Record()
			}
		}
		r.Flows[i] = fr
	}
	return r
}

// PlanOf rebuilds the plan of ev from its record, for Apply. It checks
// that the record fits the event and the graph — the event's ID, one
// flow per spec, flow IDs in minting order, paths joining their flows'
// endpoints — and nothing about the network: Apply finds out whether the
// network still matches, victim by victim.
func (p *Planner) PlanOf(ev *Event, r *PlanRecord) (*Plan, error) {
	if r.Event != ev.ID {
		return nil, fmt.Errorf("%v: plan is of event %d", ev, int64(r.Event))
	}
	if len(r.Flows) != len(ev.Specs) {
		return nil, fmt.Errorf("%v: plan has %d flows for %d specs", ev, len(r.Flows), len(ev.Specs))
	}
	g := p.mig.Network().Graph()
	n := 0
	for i := range r.Flows {
		n += len(r.Flows[i].Steps)
	}
	pl := &Plan{event: ev, base: r.Base, next: r.Next, flows: make([]flowPlan, 0, len(r.Flows)), steps: make([]migration.Step, 0, n)}
	cursor := r.Base
	mint := func(id flow.ID) error {
		if id < cursor {
			return fmt.Errorf("%v: plan mints flow %d behind %d", ev, int64(id), int64(cursor))
		}
		cursor = id + 1
		return nil
	}
	for i, fr := range r.Flows {
		if fr.Spec != i {
			return nil, fmt.Errorf("%v: plan flow %d is for spec %d", ev, i, fr.Spec)
		}
		fp := flowPlan{spec: i, id: fr.ID, failed: fr.Failed, path: fr.Path, cost: fr.Cost, evals: fr.Evals}
		pl.Evals += fr.Evals
		if fr.Failed {
			pl.failed++
			pl.flows = append(pl.flows, fp)
			continue
		}
		spec := ev.Specs[i]
		if err := mint(fr.ID); err != nil {
			return nil, err
		}
		if !joins(g, fr.Path, spec.Src, spec.Dst) {
			return nil, fmt.Errorf("%v: plan path of spec %d does not join %d to %d", ev, i, spec.Src, spec.Dst)
		}
		fp.lo = len(pl.steps)
		for _, sr := range fr.Steps {
			if sr.From.IsZero() || !sameEnds(g, sr.From, sr.To) || sr.Split && !sameEnds(g, sr.From, sr.To2) {
				return nil, fmt.Errorf("%v: plan moves flow %d between paths of different endpoints", ev, int64(sr.Victim))
			}
			if sr.Split {
				for _, id := range sr.IDs {
					if err := mint(id); err != nil {
						return nil, err
					}
				}
			}
			pl.steps = append(pl.steps, migration.StepOf(sr))
		}
		fp.hi = len(pl.steps)
		pl.Admittable++
		pl.Cost += fr.Cost
		pl.flows = append(pl.flows, fp)
	}
	if r.Next < cursor {
		return nil, fmt.Errorf("%v: plan ends at flow ID %d behind %d", ev, int64(r.Next), int64(cursor))
	}
	pl.Feasible = pl.failed == 0
	return pl, nil
}

// joins reports whether path runs from src to dst.
func joins(g *topology.Graph, path routing.Path, src, dst topology.NodeID) bool {
	n := path.Len()
	return n > 0 && g.Link(path.Link(0)).From == src && g.Link(path.Link(n-1)).To == dst
}

// sameEnds reports whether b is a path between a's endpoints.
func sameEnds(g *topology.Graph, a, b routing.Path) bool {
	return joins(g, b, g.Link(a.Link(0)).From, g.Link(a.Link(a.Len()-1)).To)
}

// ProbeStats counts the cost probes a Planner has run.
type ProbeStats struct {
	// Probes is the number of probes.
	Probes int
	// WallTime is the real (not simulated) time spent inside them.
	WallTime time.Duration
}

// Planner plans and executes update events against a network, one flow at
// a time, delegating per-flow admission (and migration of existing flows)
// to the migration planner.
type Planner struct {
	mig    *migration.Planner
	probes ProbeStats
	// scratch backs the plans of Probe and Execute, which hand nothing
	// of it out.
	scratch Plan
}

// NewPlanner wraps a migration planner. Unadmittable flows are skipped
// (FailSkip) whatever the policy argument says.
func NewPlanner(mig *migration.Planner, _ FailPolicy) *Planner {
	return &Planner{mig: mig}
}

// Network returns the underlying network state.
func (p *Planner) Network() *netstate.Network { return p.mig.Network() }

// Migration returns the per-flow admission planner, for callers (like the
// flow-level baseline) that bypass event grouping.
func (p *Planner) Migration() *migration.Planner { return p.mig }

// Execute admits every flow of the event, committing placements and
// migrations to the network: it plans the event and applies the plan.
// Unadmittable flows are recorded on the event and skipped.
func (p *Planner) Execute(ev *Event) (*ExecResult, error) {
	pl := &p.scratch
	if err := p.plan(pl, ev); err != nil {
		// The flow IDs the plan minted are spent, as a rolled-back
		// execution's would be.
		p.mig.Network().Registry().SkipTo(pl.next)
		return nil, err
	}
	return p.Apply(pl)
}

// Probe prices the event: it plans it on a view of the network and
// returns the cost the event would incur right now, writing nothing.
// This is the "calculate the update cost" step LMTF performs for each
// sampled candidate (Section IV-B), and the only way an event is priced:
// every scheduler and the simulator's co-schedule check call it or
// ProbePlan, so its counters (ProbeStats) cover every probe in the
// system.
func (p *Planner) Probe(ev *Event) (*Estimate, error) {
	if _, err := p.probe(&p.scratch, ev); err != nil {
		return nil, err
	}
	est := p.scratch.Estimate
	return &est, nil
}

// ProbePlan is Probe that also returns the plan behind the estimate, so
// the caller can Apply it instead of executing the event anew.
func (p *Planner) ProbePlan(ev *Event) (*Plan, error) {
	return p.probe(new(Plan), ev)
}

// probe plans ev into pl and counts the probe.
func (p *Planner) probe(pl *Plan, ev *Event) (*Plan, error) {
	start := time.Now()
	err := p.plan(pl, ev)
	p.probes.Probes++
	p.probes.WallTime += time.Since(start)
	if err != nil {
		return nil, err
	}
	return pl, nil
}

// ProbeStats returns the planner's cumulative probe counters.
func (p *Planner) ProbeStats() ProbeStats { return p.probes }

// plan admits the event's flows in order on the migration planner's
// view, into pl. Each spec's flow is minted with the ID AddFlow would
// give it; a spec that cannot be admitted is counted, and its ID and any
// its planning minted stay spent, as in an execution.
func (p *Planner) plan(pl *Plan, ev *Event) error {
	v := p.mig.View()
	v.Reset()
	*pl = Plan{event: ev, base: v.NextID(), flows: pl.flows[:0], steps: pl.steps[:0]}
	if cap(pl.flows) < len(ev.Specs) {
		pl.flows = make([]flowPlan, 0, len(ev.Specs))
	}
	for i, spec := range ev.Specs {
		if err := spec.Validate(); err != nil {
			pl.next = v.NextID()
			return fmt.Errorf("%v: register flow: %w", ev, err)
		}
		f := v.Mint(spec)
		lo := len(pl.steps)
		a := migration.Admission{Steps: pl.steps}
		err := p.mig.Plan(v, f, &a)
		pl.steps = a.Steps
		pl.Evals += a.Evals
		fp := flowPlan{spec: i, id: f.ID, path: a.Path, lo: lo, hi: len(a.Steps), cost: a.MigratedTraffic, evals: a.Evals}
		if err != nil {
			if !errors.Is(err, migration.ErrCannotAdmit) && !errors.Is(err, netstate.ErrNoFeasiblePath) {
				pl.next = v.NextID()
				return fmt.Errorf("%v: %w", ev, err)
			}
			pl.failed++
			fp.failed = true
		} else {
			pl.Admittable++
			pl.Cost += a.MigratedTraffic
		}
		pl.flows = append(pl.flows, fp)
	}
	pl.next, pl.Feasible = v.NextID(), pl.failed == 0
	return nil
}

// Apply carries out a plan: it registers each admitted flow with its
// planned ID, reroutes or splits its victims and places it, records the
// unadmittable specs in Event.FailedSpecs, and sets Event.CostAtExec. It
// plans nothing, and reports the plan's Evals. Apply is atomic: if the
// network no longer matches the plan — a flow was registered since, a
// victim moved, or a reservation does not fit — everything it applied is
// reverted and the error returned.
func (p *Planner) Apply(pl *Plan) (*ExecResult, error) {
	net := p.mig.Network()
	reg := net.Registry()
	ev := pl.event
	if reg.NextID() != pl.base {
		return nil, fmt.Errorf("%v: plan made at flow ID %d, network at %d: %w",
			ev, int64(pl.base), int64(reg.NextID()), migration.ErrStalePlan)
	}
	res := &ExecResult{
		Event:    ev,
		Admitted: make([]*migration.Result, 0, pl.Admittable),
		Failed:   pl.failed,
		Cost:     pl.Cost,
		Evals:    pl.Evals,
	}
	results := make([]migration.Result, pl.Admittable)
	flows, failed := len(ev.Flows), len(ev.FailedSpecs)
	for _, fp := range pl.flows {
		spec := ev.Specs[fp.spec]
		if fp.failed {
			ev.FailedSpecs = append(ev.FailedSpecs, spec)
			continue
		}
		reg.SkipTo(fp.id)
		f, err := net.AddFlow(spec)
		if err == nil {
			a := migration.Admission{Path: fp.path, Steps: pl.steps[fp.lo:fp.hi], MigratedTraffic: fp.cost, Evals: fp.evals}
			r := &results[len(res.Admitted)]
			if err = p.mig.Apply(f, &a, r); err == nil {
				res.Admitted = append(res.Admitted, r)
				ev.Flows = append(ev.Flows, f)
				continue
			}
			if rmErr := net.Remove(f); rmErr != nil {
				panic(fmt.Sprintf("core: removing unapplied flow: %v", rmErr))
			}
		}
		// Undo the admissions applied so far, newest first.
		for i := len(res.Admitted) - 1; i >= 0; i-- {
			if rbErr := p.mig.Rollback(res.Admitted[i]); rbErr != nil {
				panic(fmt.Sprintf("core: reverting a partial apply: %v", rbErr))
			}
			if rmErr := net.Remove(res.Admitted[i].Flow); rmErr != nil {
				panic(fmt.Sprintf("core: reverting a partial apply: %v", rmErr))
			}
		}
		ev.Flows, ev.FailedSpecs = ev.Flows[:flows], ev.FailedSpecs[:failed]
		return nil, fmt.Errorf("%v: %w", ev, err)
	}
	reg.SkipTo(pl.next)
	ev.CostAtExec = res.Cost
	return res, nil
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
