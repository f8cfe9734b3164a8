package ctl

// Round records: the outcome of each planned round, logged by the leader
// and applied — not re-planned — by recovery and by a follower's fold.

import (
	"fmt"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/flow"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
	"netupdate/internal/wal"
)

// logRound hands the journal the outcome of a round the engine just
// executed (the engine's round log, set in initWAL). Only a leader logs
// its rounds: a follower's log is the leader's, verbatim, so a round its
// fold plans again goes unlogged, while the rounds a recovery or a
// promotion drains as the leader are logged.
func (s *Server) logRound(lr *sim.RoundLog) {
	if !s.journal.leads() {
		return
	}
	r := &wal.RoundRecord{
		DecisionEvals: lr.DecisionEvals,
		Probes:        lr.Probes,
		Candidates:    lr.Candidates,
		CoScheduled:   lr.CoScheduled,
		Lanes:         make([]wal.LanePlan, len(lr.Lanes)),
	}
	r.SchedulerDraws, r.SelectorDraws = s.rngDraws()
	for i := range lr.Lanes {
		r.Lanes[i] = lanePlan(&lr.Lanes[i])
	}
	s.journal.logRound(&wal.Record{
		Type:   wal.TypeRound,
		ID:     wal.ID{VT: int64(lr.Start)},
		Rounds: lr.Round - 1,
		Round:  r,
	})
}

// replayScratch backs the plans of the logged round applyRound is
// rebuilding (state loop only); PlanOf copies what it keeps, so every
// round reuses it.
type replayScratch struct {
	lanes []core.PlanRecord
	steps []migration.StepRecord
}

// applyRound executes a logged round (replayRecord, once the engine
// stands at the record's stamp) through the engine's round body, and
// moves the RNGs to where the round left them. Anything that does not
// fit — an event not queued, a plan the network no longer matches — is a
// divergence.
func (s *Server) applyRound(rec *wal.Record) error {
	r, sc := rec.Round, &s.replay
	if cap(sc.lanes) < len(r.Lanes) {
		sc.lanes = make([]core.PlanRecord, len(r.Lanes))
	}
	sc.lanes, sc.steps = sc.lanes[:len(r.Lanes)], sc.steps[:0]
	for i := range r.Lanes {
		var err error
		if sc.steps, err = planRecord(s.planner.Network(), &r.Lanes[i], &sc.lanes[i], sc.steps); err != nil {
			return fmt.Errorf("%w: record seq %d: %v", ErrReplayDiverged, rec.ID.Seq, err)
		}
	}
	err := s.engine.ApplyRound(&sim.RoundLog{
		Round:         rec.Rounds + 1,
		Start:         time.Duration(rec.ID.VT),
		DecisionEvals: r.DecisionEvals,
		Probes:        r.Probes,
		Candidates:    r.Candidates,
		CoScheduled:   r.CoScheduled,
		Lanes:         sc.lanes,
	})
	s.retire()
	if err != nil {
		return fmt.Errorf("%w: record seq %d: %v", ErrReplayDiverged, rec.ID.Seq, err)
	}
	s.restoreRNG(r.SchedulerDraws, r.SelectorDraws)
	return nil
}

// rngDraws reads the draw positions of the scheduler's and the route
// selector's counted sources (0 for one without).
func (s *Server) rngDraws() (scheduler, selector int64) {
	if rc, ok := s.sched.(rngCarrier); ok {
		scheduler = rc.RNGDraws()
	}
	if rc, ok := s.planner.Network().Selector().(rngCarrier); ok {
		selector = rc.RNGDraws()
	}
	return scheduler, selector
}

// restoreRNG moves both counted sources to the given draw positions.
func (s *Server) restoreRNG(scheduler, selector int64) {
	if rc, ok := s.sched.(rngCarrier); ok {
		rc.RestoreRNG(scheduler)
	}
	if rc, ok := s.planner.Network().Selector().(rngCarrier); ok {
		rc.RestoreRNG(selector)
	}
}

// lanePlan is an applied plan in wire units; one array backs all its
// paths.
func lanePlan(pr *core.PlanRecord) wal.LanePlan {
	n := 0
	for _, fr := range pr.Flows {
		n += fr.Path.Len()
		for _, st := range fr.Steps {
			n += st.From.Len() + st.To.Len() + st.To2.Len()
		}
	}
	arena := make([]int32, 0, n)
	links := func(p routing.Path) []int32 {
		at := len(arena)
		for i := range p.Len() {
			arena = append(arena, int32(p.Link(i)))
		}
		return arena[at:len(arena):len(arena)]
	}
	lane := wal.LanePlan{
		Event: int64(pr.Event),
		Base:  int64(pr.Base),
		Next:  int64(pr.Next),
		Flows: make([]wal.FlowPlan, len(pr.Flows)),
	}
	for i, fr := range pr.Flows {
		fp := wal.FlowPlan{Spec: fr.Spec, ID: int64(fr.ID), Failed: fr.Failed, Path: links(fr.Path), CostBps: int64(fr.Cost), Evals: fr.Evals}
		if len(fr.Steps) > 0 {
			fp.Steps = make([]wal.StepPlan, len(fr.Steps))
			for j, st := range fr.Steps {
				sp := wal.StepPlan{Victim: int64(st.Victim), From: links(st.From), To: links(st.To), Split: st.Split}
				if st.Split {
					sp.To2 = links(st.To2)
					sp.DemandsBps = [2]int64{int64(st.Demands[0]), int64(st.Demands[1])}
					sp.IDs = [2]int64{int64(st.IDs[0]), int64(st.IDs[1])}
				}
				fp.Steps[j] = sp
			}
		}
		lane.Flows[i] = fp
	}
	return lane
}

// planRecord rebuilds a logged lane's plan in the planner's units into
// pr, reusing its flows, and appends its migrations to steps. Every path
// is taken from the candidates the network's provider offers its
// endpoints — the one a live plan chose, shared rather than copied — so a
// link ID off the graph or a link sequence no candidate follows is an
// error.
func planRecord(net *netstate.Network, lane *wal.LanePlan, pr *core.PlanRecord, steps []migration.StepRecord) ([]migration.StepRecord, error) {
	g := net.Graph()
	path := func(links []int32) (routing.Path, error) {
		for _, l := range links {
			if l < 0 || int(l) >= g.NumLinks() {
				return routing.Path{}, fmt.Errorf("link %d is not in the graph", l)
			}
		}
		if len(links) == 0 {
			return routing.Path{}, fmt.Errorf("empty path")
		}
		set := net.Provider().Paths(g.Link(topology.LinkID(links[0])).From, g.Link(topology.LinkID(links[len(links)-1])).To)
	candidates:
		for i := range set.Len() {
			p := set.At(i)
			if p.Len() != len(links) {
				continue
			}
			for j, l := range links {
				if p.Link(j) != topology.LinkID(l) {
					continue candidates
				}
			}
			return p, nil
		}
		return routing.Path{}, fmt.Errorf("links %v are no candidate path", links)
	}
	*pr = core.PlanRecord{Event: flow.EventID(lane.Event), Base: flow.ID(lane.Base), Next: flow.ID(lane.Next), Flows: pr.Flows[:0]}
	for i := range lane.Flows {
		fp := &lane.Flows[i]
		fr := core.FlowRecord{Spec: fp.Spec, ID: flow.ID(fp.ID), Failed: fp.Failed, Cost: topology.Bandwidth(fp.CostBps), Evals: fp.Evals}
		var err error
		if !fp.Failed {
			if fr.Path, err = path(fp.Path); err != nil {
				return steps, err
			}
		}
		lo := len(steps)
		for _, sp := range fp.Steps {
			st := migration.StepRecord{Victim: flow.ID(sp.Victim), Split: sp.Split}
			if st.From, err = path(sp.From); err == nil {
				st.To, err = path(sp.To)
			}
			if err == nil && sp.Split {
				st.To2, err = path(sp.To2)
				st.Demands = [2]topology.Bandwidth{topology.Bandwidth(sp.DemandsBps[0]), topology.Bandwidth(sp.DemandsBps[1])}
				st.IDs = [2]flow.ID{flow.ID(sp.IDs[0]), flow.ID(sp.IDs[1])}
			}
			if err != nil {
				return steps, err
			}
			steps = append(steps, st)
		}
		if len(steps) > lo {
			fr.Steps = steps[lo:len(steps):len(steps)]
		}
		pr.Flows = append(pr.Flows, fr)
	}
	return steps, nil
}
