package sched

import (
	"netupdate/internal/core"
	"netupdate/internal/flow"
	"netupdate/internal/topology"
)

// MinCost prices the whole queue through the probe engine's incremental
// cache and executes the globally cheapest event each round. It is the
// "intrinsic method" of the paper (full-queue reordering, like Reorder)
// made affordable: the first round cold-probes every queued event, but
// from then on the engine's dirty-set maintenance revalidates only the
// events whose read sets intersect links changed since the last round,
// and the round's winner is popped from the engine's min-cost index
// instead of recomputed by a scan. A steady-state round over an
// unchanged queue therefore performs zero full trial-plans.
//
// Ties are broken by event ID (stable across runs),
// unlike Reorder's queue-position tie-break — with unique IDs the two
// policies pick the same event whenever costs are distinct.
type MinCost struct {
	// eng is the probe engine, bound lazily to the planner Pick receives.
	eng *core.ProbeEngine
	// record makes Pick report per-candidate probe outcomes in
	// Decision.Probes (see ProbeRecorder); off by default.
	record bool
	// evScratch backs the per-round event collection so steady-state
	// rounds allocate nothing for it.
	evScratch []*core.Event
}

var _ Scheduler = (*MinCost)(nil)
var _ CostProber = (*MinCost)(nil)
var _ ProbeRecorder = (*MinCost)(nil)

// NewMinCost returns a min-cost scheduler.
func NewMinCost() *MinCost { return &MinCost{} }

// Name implements Scheduler.
func (s *MinCost) Name() string { return "min-cost" }

// SetRecordProbes implements ProbeRecorder.
func (s *MinCost) SetRecordProbes(on bool) { s.record = on }

// ProbeEngine implements CostProber, returning the engine bound to the
// given planner (rebinding if the planner changed since the last round).
func (s *MinCost) ProbeEngine(planner *core.Planner) *core.ProbeEngine {
	if s.eng == nil || s.eng.Planner() != planner {
		s.eng = core.NewProbeEngine(planner)
	}
	return s.eng
}

// Pick implements Scheduler. It batch-probes every queued event — valid
// cached entries answer in O(1) with no planning work, only dirtied or
// new events replan — then pops the cheapest valid candidate from the
// engine's min-cost index. Evals charges only the replans (the honest
// incremental cost of the round), unlike Reorder, which charges a full
// probe of every queued event every round.
func (s *MinCost) Pick(q *Queue, planner *core.Planner) (Decision, error) {
	if q.Len() == 0 {
		return Decision{}, ErrEmptyQueue
	}
	evs := s.evScratch[:0]
	for i := 0; i < q.Len(); i++ {
		evs = append(evs, q.At(i))
	}
	s.evScratch = evs[:0]
	eng := s.ProbeEngine(planner)
	ests, err := eng.ProbeAll(evs)
	if err != nil {
		return Decision{}, err
	}
	d := Decision{}
	for _, est := range ests {
		if !est.FromCache {
			d.Evals += est.Evals
		}
	}
	if s.record {
		d.Probes = make([]ProbeRecord, 0, len(evs))
		for i, est := range ests {
			if est.FromCache {
				continue
			}
			d.Probes = append(d.Probes, ProbeRecord{
				Event:      evs[i],
				Cost:       est.Cost,
				Admittable: est.Admittable,
				Evals:      est.Evals,
				CacheHit:   false,
			})
		}
	}
	if id, _, ok := eng.CheapestValid(); ok {
		for _, ev := range evs {
			if ev.ID == id {
				d.Head = ev
				return d, nil
			}
		}
		// The index's minimum is not in this queue (stale entry for an
		// event owned by another queue); fall through to the scan.
	}
	// Cacheless mode (data plane attached) or index miss: scan the fresh
	// estimates with the same (cost, ID) order.
	best := 0
	for i := 1; i < len(ests); i++ {
		if less(ests[i].Cost, evs[i].ID, ests[best].Cost, evs[best].ID) {
			best = i
		}
	}
	d.Head = evs[best]
	return d, nil
}

// less orders candidates by (cost, event ID).
func less(c1 topology.Bandwidth, id1 flow.EventID, c2 topology.Bandwidth, id2 flow.EventID) bool {
	if c1 != c2 {
		return c1 < c2
	}
	return id1 < id2
}
