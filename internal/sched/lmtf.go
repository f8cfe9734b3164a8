package sched

import (
	"fmt"
	"math/rand"

	"netupdate/internal/core"
	"netupdate/internal/detrand"
	"netupdate/internal/topology"
)

// DefaultAlpha is the paper's sampling parameter (α=4 in every
// experiment); load-balance theory says even α=2 captures most of the
// benefit (power of two random choices [16]).
const DefaultAlpha = 4

// LMTF — least migration traffic first (Section IV-B) — schedules in
// arrival order but fine-tunes the head each round: it samples α queued
// events, probes their current update costs together with the head's, and
// executes the cheapest of the α+1 candidates. Smaller events therefore
// overtake a heavy head (no head-of-line blocking) while un-sampled events
// keep their FIFO positions (bounded unfairness).
//
// Each probe plans the event on a read-only view of the network
// (core.Planner.ProbePlan), and the winner's plan is the one the
// executor applies; sampling, not caching, is what keeps probing cheap.
type LMTF struct {
	// Alpha is the sample size (>= 1).
	Alpha int
	rng   *rand.Rand
	src   *detrand.CountedSource
	// record makes Pick report per-candidate probe outcomes in
	// Decision.Probes (see ProbeRecorder); off by default.
	record bool
	// scratch backs sampleIndices between rounds so sampling allocates
	// nothing in steady state.
	scratch []int
}

var _ Scheduler = (*LMTF)(nil)
var _ ProbeRecorder = (*LMTF)(nil)

// NewLMTF returns an LMTF scheduler with the given sample size (0 means
// DefaultAlpha) and RNG seed.
func NewLMTF(alpha int, seed int64) *LMTF {
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	src := detrand.New(seed)
	return &LMTF{Alpha: alpha, rng: rand.New(src), src: src}
}

// RNGDraws returns the number of sampling RNG draws consumed so far.
func (s *LMTF) RNGDraws() int64 { return s.src.Draws() }

// RestoreRNG repositions the sampling RNG at the given draw count
// (checkpoint recovery).
func (s *LMTF) RestoreRNG(draws int64) { s.src.Restore(draws) }

// Name implements Scheduler.
func (s *LMTF) Name() string { return fmt.Sprintf("lmtf(a=%d)", s.Alpha) }

// SetRecordProbes implements ProbeRecorder.
func (s *LMTF) SetRecordProbes(on bool) { s.record = on }

// Pick implements Scheduler.
func (s *LMTF) Pick(q *Queue, planner *core.Planner) (Decision, error) {
	cands, d, err := s.selectCandidates(q, planner)
	if err != nil {
		return Decision{}, err
	}
	d.Head, d.Plan = cands[0].ev, cands[0].plan
	return d, nil
}

// candidate pairs an event with its probed plan and queue index.
type candidate struct {
	ev         *core.Event
	index      int
	cost       topology.Bandwidth
	admittable int
	plan       *core.Plan
}

// selectCandidates probes the head plus α sampled events and returns them
// sorted so that the cheapest (ties: earliest arrival) is first and the
// rest follow in arrival order. Shared by LMTF and P-LMTF.
func (s *LMTF) selectCandidates(q *Queue, planner *core.Planner) ([]candidate, Decision, error) {
	if q.Len() == 0 {
		return nil, Decision{}, ErrEmptyQueue
	}
	d := Decision{}
	indices := s.sampleIndices(q.Len(), s.Alpha)
	cands := make([]candidate, 0, len(indices))
	if s.record {
		d.Probes = make([]ProbeRecord, 0, len(indices))
	}
	for _, i := range indices {
		ev := q.At(i)
		pl, err := s.probe(planner, ev, &d)
		if err != nil {
			return nil, Decision{}, err
		}
		cands = append(cands, candidate{ev: ev, index: i, cost: pl.Cost, admittable: pl.Admittable, plan: pl})
	}
	// Move the winner to the front; keep everyone else in arrival order.
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].cost < cands[best].cost {
			best = i
		}
	}
	if best != 0 {
		winner := cands[best]
		cands = append(cands[:best], cands[best+1:]...)
		cands = append([]candidate{winner}, cands...)
	}
	return cands, d, nil
}

// probe plans one event for decision d: it charges the probe's planning
// work to d.Evals and, when recording, reports it in d.Probes.
func (s *LMTF) probe(planner *core.Planner, ev *core.Event, d *Decision) (*core.Plan, error) {
	pl, err := planner.ProbePlan(ev)
	if err != nil {
		return nil, fmt.Errorf("probe %v: %w", ev, err)
	}
	d.Evals += pl.Evals
	if s.record {
		d.Probes = append(d.Probes, ProbeRecord{
			Event:      ev,
			Cost:       pl.Cost,
			Admittable: pl.Admittable,
			Evals:      pl.Evals,
		})
	}
	return pl, nil
}

// sampleIndices returns {0} ∪ α distinct random indices from [1, n), in
// increasing order after the leading 0. With n-1 <= α it returns all
// indices (the paper: LMTF "does not persist in sampling α events when the
// queue contains less than α+1"). The returned slice is backed by the
// scheduler's scratch buffer and is valid until the next call; steady
// state allocates nothing.
func (s *LMTF) sampleIndices(n, alpha int) []int {
	out := append(s.scratch[:0], 0)
	defer func() { s.scratch = out[:0] }()
	rest := n - 1
	if rest <= 0 {
		return out
	}
	if rest <= alpha {
		for i := 1; i < n; i++ {
			out = append(out, i)
		}
		return out
	}
	// Floyd's algorithm: α distinct values from [1, n). Membership tests
	// scan the picks gathered so far — α is tiny, so a linear scan beats
	// allocating a set, and the accepted values match the map-based
	// formulation exactly (same RNG consumption, same picks).
	contains := func(picks []int, v int) bool {
		for _, p := range picks {
			if p == v {
				return true
			}
		}
		return false
	}
	for j := rest - alpha; j < rest; j++ {
		// candidate in [1, j+1]
		v := 1 + s.rng.Intn(j+1)
		if contains(out[1:], v) {
			v = j + 1
		}
		out = append(out, v)
	}
	// Sort the small pick tail (insertion sort keeps this allocation-free).
	picks := out[1:]
	for i := 1; i < len(picks); i++ {
		for j := i; j > 0 && picks[j] < picks[j-1]; j-- {
			picks[j], picks[j-1] = picks[j-1], picks[j]
		}
	}
	return out
}
