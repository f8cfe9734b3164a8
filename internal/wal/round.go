package wal

import (
	"encoding/binary"
	"fmt"

	"netupdate/internal/obs"
)

// RoundRecord is the payload of one executed scheduling round whose
// decision carried a plan: the round's outcome, so recovery and a
// follower's fold can execute the round again by applying its plans
// instead of deciding it. The record header carries the round's start
// clock (ID.VT) and the rounds completed before it (Rounds); the round's
// number is Rounds+1.
//
// A round record is a memo, not an input: a log without one (a torn
// tail, a FIFO run, an older build) re-plans the round, which by
// determinism gives the same outcome.
type RoundRecord struct {
	// DecisionEvals is the decision's planning work and Probes the number
	// of probes the decision and its co-schedule checks ran.
	DecisionEvals int `json:"decision_evals"`
	Probes        int `json:"probes"`
	// SchedulerDraws and SelectorDraws are the RNG draw positions of the
	// scheduler and the route selector after the round.
	SchedulerDraws int64 `json:"scheduler_draws,omitempty"`
	SelectorDraws  int64 `json:"selector_draws,omitempty"`
	// Candidates are the decision's probes; CoScheduled the co-schedule
	// checks after the head, in order.
	Candidates  []obs.ProbeOutcome `json:"candidates,omitempty"`
	CoScheduled []obs.CoSchedule   `json:"co_scheduled,omitempty"`
	// Lanes are the executed lanes: the head's, then each committed
	// co-schedule's in order.
	Lanes []LanePlan `json:"lanes"`
}

// LanePlan is one executed lane of a round: its event and the plan it
// applied (core.PlanRecord in wire units).
type LanePlan struct {
	Event int64 `json:"event"`
	// Base and Next are the flow-ID counter before and after the plan.
	Base  int64      `json:"base"`
	Next  int64      `json:"next"`
	Flows []FlowPlan `json:"flows"`
}

// FlowPlan is one spec's planned admission.
type FlowPlan struct {
	Spec   int     `json:"spec"`
	ID     int64   `json:"id"`
	Failed bool    `json:"failed,omitempty"`
	Path   []int32 `json:"path,omitempty"`
	// CostBps is the traffic the flow's migrations move, Evals its
	// planning work.
	CostBps int64      `json:"cost_bps"`
	Evals   int        `json:"evals"`
	Steps   []StepPlan `json:"steps,omitempty"`
}

// StepPlan is one planned migration: victim moved From -> To or, split,
// withdrawn and replaced by two children on To and To2.
type StepPlan struct {
	Victim     int64    `json:"victim"`
	From       []int32  `json:"from"`
	To         []int32  `json:"to"`
	Split      bool     `json:"split,omitempty"`
	To2        []int32  `json:"to2,omitempty"`
	DemandsBps [2]int64 `json:"demands_bps"`
	IDs        [2]int64 `json:"ids"`
}

// Round body (after the common header), every integer the minimal
// unsigned varint of its two's-complement bits, so that decoding and
// encoding again gives the same bytes:
//
//	decision evals, probes, scheduler draws, selector draws
//	candidate count, then per candidate: event, cost, evals, admittable
//	check count, then per check: event, cost, evals, admittable,
//	    alone admittable, committed (0/1)
//	lane count, then per lane: event, base, next, flow count, then per
//	    flow: spec, id, failed (0/1), path, cost, evals, step count, then
//	    per step: victim, from, to, split (0/1), and for a split to2,
//	    demand 1, demand 2, id 1, id 2
//
// A path is its link count followed by its link IDs.

func appendRoundBody(dst []byte, r *RoundRecord) []byte {
	u := func(v int64) { dst = binary.AppendUvarint(dst, uint64(v)) }
	flag := func(b bool) {
		if b {
			u(1)
		} else {
			u(0)
		}
	}
	path := func(p []int32) {
		u(int64(len(p)))
		for _, l := range p {
			u(int64(l))
		}
	}
	probe := func(p obs.ProbeOutcome) {
		u(p.Event)
		u(p.CostBps)
		u(int64(p.Evals))
		u(int64(p.Admittable))
	}
	u(int64(r.DecisionEvals))
	u(int64(r.Probes))
	u(r.SchedulerDraws)
	u(r.SelectorDraws)
	u(int64(len(r.Candidates)))
	for _, c := range r.Candidates {
		probe(c)
	}
	u(int64(len(r.CoScheduled)))
	for _, c := range r.CoScheduled {
		probe(c.Probe)
		u(int64(c.AloneAdmittable))
		flag(c.Committed)
	}
	u(int64(len(r.Lanes)))
	for _, l := range r.Lanes {
		u(l.Event)
		u(l.Base)
		u(l.Next)
		u(int64(len(l.Flows)))
		for _, f := range l.Flows {
			u(int64(f.Spec))
			u(f.ID)
			flag(f.Failed)
			path(f.Path)
			u(f.CostBps)
			u(int64(f.Evals))
			u(int64(len(f.Steps)))
			for _, st := range f.Steps {
				u(st.Victim)
				path(st.From)
				path(st.To)
				flag(st.Split)
				if st.Split {
					path(st.To2)
					u(st.DemandsBps[0])
					u(st.DemandsBps[1])
					u(st.IDs[0])
					u(st.IDs[1])
				}
			}
		}
	}
	return dst
}

// linkChunk is how many path links bodyReader allocates at once.
const linkChunk = 1024

// bodyReader reads a round body; the first malformed, overlong or
// missing value makes err ErrCorrupt and every later read return zero.
type bodyReader struct {
	b   []byte
	err error
	// links backs the record's paths, linkChunk links at a time.
	links []int32
}

func (r *bodyReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: malformed round body at %s", ErrCorrupt, what)
	}
	r.b = nil
}

func (r *bodyReader) u(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, rest, ok := uvarint(r.b)
	if !ok {
		r.fail(what)
		return 0
	}
	r.b = rest
	return int64(v)
}

// int reads a value that must fit an int.
func (r *bodyReader) int(what string) int {
	v := r.u(what)
	if int64(int(v)) != v {
		r.fail(what)
		return 0
	}
	return int(v)
}

func (r *bodyReader) flag(what string) bool {
	switch r.u(what) {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail(what)
	return false
}

// count reads an element count; every element takes at least one byte,
// so a count past the bytes left is corrupt (and allocates nothing).
func (r *bodyReader) count(what string) int {
	n := r.u(what)
	if n < 0 || n > int64(len(r.b)) {
		r.fail(what)
		return 0
	}
	return int(n)
}

func (r *bodyReader) path(what string) []int32 {
	n := r.count(what)
	if n == 0 {
		return nil
	}
	if cap(r.links)-len(r.links) < n {
		r.links = make([]int32, 0, max(n, linkChunk))
	}
	at := len(r.links)
	r.links = r.links[:at+n]
	p := r.links[at : at+n : at+n]
	for i := range p {
		v := r.u(what)
		if int64(int32(v)) != v {
			r.fail(what)
			return nil
		}
		p[i] = int32(v)
	}
	return p
}

func (r *bodyReader) probe(what string) obs.ProbeOutcome {
	return obs.ProbeOutcome{Event: r.u(what), CostBps: r.u(what), Evals: r.int(what), Admittable: r.int(what)}
}

func decodeRoundBody(body []byte) (*RoundRecord, error) {
	r := &bodyReader{b: body}
	rec := &RoundRecord{
		DecisionEvals:  r.int("decision evals"),
		Probes:         r.int("probes"),
		SchedulerDraws: r.u("scheduler draws"),
		SelectorDraws:  r.u("selector draws"),
	}
	if n := r.count("candidates"); n > 0 {
		rec.Candidates = make([]obs.ProbeOutcome, n)
		for i := range rec.Candidates {
			rec.Candidates[i] = r.probe("candidate")
		}
	}
	if n := r.count("checks"); n > 0 {
		rec.CoScheduled = make([]obs.CoSchedule, n)
		for i := range rec.CoScheduled {
			rec.CoScheduled[i] = obs.CoSchedule{Probe: r.probe("check"), AloneAdmittable: r.int("check"), Committed: r.flag("check")}
		}
	}
	rec.Lanes = make([]LanePlan, r.count("lanes"))
	for i := range rec.Lanes {
		l := LanePlan{Event: r.u("lane"), Base: r.u("lane"), Next: r.u("lane")}
		l.Flows = make([]FlowPlan, r.count("flows"))
		for j := range l.Flows {
			f := FlowPlan{Spec: r.int("flow"), ID: r.u("flow"), Failed: r.flag("flow"), Path: r.path("flow path"),
				CostBps: r.u("flow"), Evals: r.int("flow")}
			if n := r.count("steps"); n > 0 {
				f.Steps = make([]StepPlan, n)
				for k := range f.Steps {
					st := StepPlan{Victim: r.u("step"), From: r.path("step from"), To: r.path("step to"), Split: r.flag("step")}
					if st.Split {
						st.To2 = r.path("step to2")
						st.DemandsBps = [2]int64{r.u("step"), r.u("step")}
						st.IDs = [2]int64{r.u("step"), r.u("step")}
					}
					f.Steps[k] = st
				}
			}
			l.Flows[j] = f
		}
		rec.Lanes[i] = l
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail("end")
	}
	if r.err != nil {
		return nil, r.err
	}
	return rec, nil
}
