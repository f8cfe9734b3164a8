package sched

import (
	"errors"

	"netupdate/internal/core"
	"netupdate/internal/topology"
)

// ErrEmptyQueue is returned by Pick on an empty queue.
var ErrEmptyQueue = errors.New("sched: empty update queue")

// Decision is the outcome of one scheduling round.
type Decision struct {
	// Head is the event that must execute now.
	Head *core.Event
	// Plan is Head's plan when the decision probed it (nil otherwise):
	// the executor applies it rather than planning Head again. It is
	// valid until the network changes.
	Plan *core.Plan
	// Opportunistic lists further events, in arrival order, that the
	// executor should co-schedule with Head if doing so does not
	// interfere with them (see Candidate). Only P-LMTF produces a
	// non-empty list.
	Opportunistic []Candidate
	// Evals is the planning work (feasibility evaluations) spent making
	// this decision; the simulator charges plan time for it.
	Evals int
	// Probes reports the individual cost probes behind the decision, in
	// the order they were sampled, for observability (the per-round
	// trace record). It is populated only when probe recording has been
	// enabled via ProbeRecorder — the default leaves it nil so that
	// untraced decisions allocate nothing extra.
	Probes []ProbeRecord
}

// ProbeRecord is one cost probe made while deciding a round, as reported
// in Decision.Probes.
type ProbeRecord struct {
	// Event is the probed event.
	Event *core.Event
	// Cost, Admittable and Evals mirror the probe's core.Estimate.
	Cost       topology.Bandwidth
	Admittable int
	Evals      int
}

// Candidate is an event offered for opportunistic co-scheduling together
// with the admission headroom it had when the decision was made.
type Candidate struct {
	// Event is the offered event.
	Event *core.Event
	// AloneAdmittable is how many of the event's flows were admittable
	// when probed before the round's head executed. The executor
	// co-schedules the event only if a fresh probe (with the head's plan
	// committed) admits at least as many flows — i.e. running together
	// does not interfere with the event. Flows that fail either way
	// (e.g. saturated host access links) do not block co-scheduling.
	AloneAdmittable int
}

// Scheduler picks the next event(s) to execute from the update queue.
// Pick must not modify the queue or the network (cost probes write
// nothing); the simulator removes chosen events and executes them.
type Scheduler interface {
	// Name identifies the policy in reports ("fifo", "lmtf", ...).
	Name() string
	// Pick chooses from a non-empty queue using planner for cost probes.
	Pick(q *Queue, planner *core.Planner) (Decision, error)
}

// ProbeRecorder is implemented by schedulers that can report their
// per-candidate probe outcomes in Decision.Probes. Recording defaults to
// off so that untraced hot paths stay allocation-identical; the
// simulator turns it on when a tracer is attached to the engine.
type ProbeRecorder interface {
	// SetRecordProbes enables or disables Decision.Probes reporting.
	SetRecordProbes(on bool)
}
