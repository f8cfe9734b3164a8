package sched

import (
	"fmt"

	"netupdate/internal/core"
)

// PLMTF — parallel LMTF (Section IV-C) — first selects the new head
// exactly as LMTF does, then offers the remaining α candidates, in arrival
// order, for opportunistic co-scheduling: the executor commits the head
// and then admits each opportunistic event whose flows still fit. A heavy
// event that LMTF pushed back thus regains a chance to run early
// (fairness), and multiple events update in the same round (efficiency).
//
// P-LMTF deliberately checks only the sampled candidates, not the whole
// queue — scanning everything would reintroduce the Reorder method's
// computation cost (the paper makes the same argument).
type PLMTF struct {
	inner *LMTF
	// scanAll offers the entire queue (not just the α sampled candidates)
	// for co-scheduling — the costlier alternative Section IV-C rejects,
	// kept for the batch-width ablation (WithScanAll). The executor probes
	// each offered event, so it multiplies planning work by queue length.
	scanAll bool
}

var _ Scheduler = (*PLMTF)(nil)
var _ ProbeRecorder = (*PLMTF)(nil)

// NewPLMTF returns a P-LMTF scheduler with the given sample size (0 means
// DefaultAlpha) and RNG seed.
func NewPLMTF(alpha int, seed int64) *PLMTF {
	return &PLMTF{inner: NewLMTF(alpha, seed)}
}

// Name implements Scheduler.
func (s *PLMTF) Name() string {
	if s.scanAll {
		return fmt.Sprintf("p-lmtf-full(a=%d)", s.inner.Alpha)
	}
	return fmt.Sprintf("p-lmtf(a=%d)", s.inner.Alpha)
}

// Alpha returns the sample size.
func (s *PLMTF) Alpha() int { return s.inner.Alpha }

// RNGDraws returns the number of sampling RNG draws consumed so far.
func (s *PLMTF) RNGDraws() int64 { return s.inner.RNGDraws() }

// RestoreRNG repositions the sampling RNG at the given draw count
// (checkpoint recovery).
func (s *PLMTF) RestoreRNG(draws int64) { s.inner.RestoreRNG(draws) }

// SetRecordProbes implements ProbeRecorder, delegating to the inner LMTF.
func (s *PLMTF) SetRecordProbes(on bool) { s.inner.SetRecordProbes(on) }

// Pick implements Scheduler: the LMTF winner plus the remaining
// candidates, in arrival order, as opportunistic co-runners.
func (s *PLMTF) Pick(q *Queue, planner *core.Planner) (Decision, error) {
	cands, d, err := s.inner.selectCandidates(q, planner)
	if err != nil {
		return Decision{}, err
	}
	d.Head, d.Plan = cands[0].ev, cands[0].plan
	if s.scanAll {
		// Offer the whole queue in arrival order. Events outside the
		// sampled set were not probed for the decision; probe them now so
		// the executor has their alone-admittable baselines. This is the
		// full-queue cost the sampled design avoids.
		byEvent := make(map[*core.Event]int, len(cands))
		for _, c := range cands {
			byEvent[c.ev] = c.admittable
		}
		for i := 0; i < q.Len(); i++ {
			ev := q.At(i)
			if _, ok := byEvent[ev]; ok {
				continue
			}
			est, err := s.inner.probe(planner, ev, &d)
			if err != nil {
				return Decision{}, err
			}
			byEvent[ev] = est.Admittable
		}
		rest := make([]Candidate, 0, q.Len()-1)
		for i := 0; i < q.Len(); i++ {
			ev := q.At(i)
			if ev == d.Head {
				continue
			}
			rest = append(rest, Candidate{Event: ev, AloneAdmittable: byEvent[ev]})
		}
		d.Opportunistic = rest
		return d, nil
	}
	if len(cands) > 1 {
		rest := make([]Candidate, 0, len(cands)-1)
		for _, c := range cands[1:] {
			rest = append(rest, Candidate{Event: c.ev, AloneAdmittable: c.admittable})
		}
		d.Opportunistic = rest
	}
	return d, nil
}
