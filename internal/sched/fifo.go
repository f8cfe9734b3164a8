package sched

import (
	"netupdate/internal/core"
)

// FIFO executes events strictly in arrival order: simple, strictly fair,
// and vulnerable to head-of-line blocking when event durations are
// heavy-tailed (Section IV-B).
type FIFO struct{}

var _ Scheduler = FIFO{}

// Name implements Scheduler.
func (FIFO) Name() string { return "fifo" }

// Pick implements Scheduler: always the head event, no probing work.
func (FIFO) Pick(q *Queue, _ *core.Planner) (Decision, error) {
	if q.Len() == 0 {
		return Decision{}, ErrEmptyQueue
	}
	return Decision{Head: q.Head()}, nil
}

// Reorder is the "intrinsic method" of Section III-C: probe every queued
// event and execute the cheapest first. It tackles head-of-line blocking
// completely but pays full-queue probing cost each round and destroys
// arrival-order fairness; the paper rejects it in favour of LMTF, and it
// is kept here as an ablation baseline.
type Reorder struct{}

var _ Scheduler = Reorder{}

// Name implements Scheduler.
func (Reorder) Name() string { return "reorder" }

// Pick implements Scheduler: probe all, choose the cheapest (ties go to
// the earliest arrival). Every probe is reported in Decision.Probes —
// Reorder's full-queue scan is already the expensive baseline, so the
// recording is unconditional (no ProbeRecorder opt-in needed).
func (Reorder) Pick(q *Queue, planner *core.Planner) (Decision, error) {
	if q.Len() == 0 {
		return Decision{}, ErrEmptyQueue
	}
	d := Decision{Probes: make([]ProbeRecord, 0, q.Len())}
	best := -1
	var bestCost float64
	for i := 0; i < q.Len(); i++ {
		est, err := planner.Probe(q.At(i))
		if err != nil {
			return Decision{}, err
		}
		d.Evals += est.Evals
		d.Probes = append(d.Probes, ProbeRecord{
			Event:      q.At(i),
			Cost:       est.Cost,
			Admittable: est.Admittable,
			Evals:      est.Evals,
		})
		if best == -1 || float64(est.Cost) < bestCost {
			best, bestCost = i, float64(est.Cost)
		}
	}
	d.Head = q.At(best)
	return d, nil
}
