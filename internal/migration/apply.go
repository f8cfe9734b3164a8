package migration

import (
	"errors"
	"fmt"

	"netupdate/internal/flow"
	"netupdate/internal/routing"
)

// This file is the one place the migration package writes the network:
// planning reads it through a netstate.View and writes nothing.

// ErrStalePlan is returned by Apply when the network no longer holds a
// planned victim where the plan found it.
var ErrStalePlan = errors.New("plan is stale")

// Admit places f into the network, applying migrations if its candidate
// paths lack capacity: it plans the admission on the planner's view
// (Plan) and applies it (Apply). On success the returned Result reflects
// the applied state; on failure the network is unchanged and the error
// wraps either netstate.ErrNoFeasiblePath (no candidates at all) or
// ErrCannotAdmit. Even on failure the Result is returned (with no moves)
// so callers can account for the planning work in Result.Evals.
func (p *Planner) Admit(f *flow.Flow) (*Result, error) {
	v := p.View()
	v.Reset()
	var a Admission
	res := &Result{Flow: f}
	if err := p.Plan(v, f, &a); err != nil {
		res.Evals = a.Evals
		return res, err
	}
	if err := p.Apply(f, &a, res); err != nil {
		return res, err
	}
	return res, nil
}

// Apply carries out an admission planned for f (Plan) on the network, in
// planned order: each victim is rerouted, or withdrawn and replaced by
// its two split children (registered with their planned IDs), and then f
// is placed on a.Path. f must be registered and unplaced. Every victim is
// resolved by its ID, so a step rebuilt from a record applies like the
// planned one. Apply plans nothing: when the network no longer matches
// the plan — a victim is unknown or moved (ErrStalePlan) or a reservation
// does not fit — everything it applied is reverted and the error
// returned. res is overwritten with the applied
// admission; its Evals are the plan's.
func (p *Planner) Apply(f *flow.Flow, a *Admission, res *Result) error {
	*res = Result{Flow: f, Evals: a.Evals}
	if len(a.Steps) > 0 {
		res.Moves = make([]Move, 0, len(a.Steps))
	}
	reg := p.net.Registry()
	for i := range a.Steps {
		st := &a.Steps[i]
		victim, err := reg.Get(st.victimID)
		if err != nil {
			p.rollback(res)
			return fmt.Errorf("admit %v: %w", f, err)
		}
		if !victim.Placed() || !victim.Path().Equal(st.from) {
			p.rollback(res)
			return fmt.Errorf("admit %v: %v moved: %w", f, victim, ErrStalePlan)
		}
		mv := Move{Flow: victim, From: st.from, To: st.to}
		if st.split {
			sm, err := p.applySplit(victim, st)
			if err != nil {
				p.rollback(res)
				return fmt.Errorf("admit %v: %w", f, err)
			}
			mv.split = sm
		} else if err := p.net.Reroute(victim, st.to); err != nil {
			p.rollback(res)
			return fmt.Errorf("admit %v: %w", f, err)
		}
		res.Moves = append(res.Moves, mv)
		res.MigratedTraffic += victim.Demand
	}
	if err := p.net.Place(f, a.Path); err != nil {
		p.rollback(res)
		return fmt.Errorf("admit %v: %w", f, err)
	}
	res.Path = a.Path
	return nil
}

// applySplit withdraws victim and registers and places the two children
// of a planned split; on failure the victim is back in place.
func (p *Planner) applySplit(victim *flow.Flow, st *Step) (*splitMove, error) {
	if err := p.net.Withdraw(victim); err != nil {
		return nil, err
	}
	sm := &splitMove{original: victim, oldPath: st.from}
	paths := [2]routing.Path{st.to, st.to2}
	for j := range sm.children {
		p.net.Registry().SkipTo(st.ids[j])
		child, err := p.net.AddFlow(childSpec(victim, st.demands[j]))
		if err == nil {
			if err = p.net.Place(child, paths[j]); err != nil {
				p.mustRemove(child)
			}
		}
		if err != nil {
			for _, c := range sm.children[:j] {
				p.mustRemove(c)
			}
			if rerr := p.net.Place(victim, st.from); rerr != nil {
				panic(fmt.Sprintf("migration: restoring split victim: %v", rerr))
			}
			return nil, err
		}
		sm.children[j] = child
	}
	return sm, nil
}

// Rollback undoes an Admit: the flow is withdrawn and every migrated flow
// returns to its original path (in reverse order, which is always
// feasible because it exactly reverses the applied reservations).
// It is used by event-level rollback when rule installs keep failing
// after an event's plan was applied (core.Planner.RollbackExec).
func (p *Planner) Rollback(res *Result) error {
	if res.Flow.Placed() {
		if err := p.net.Withdraw(res.Flow); err != nil {
			return fmt.Errorf("rollback %v: %w", res.Flow, err)
		}
	}
	p.rollback(res)
	return nil
}

// rollback reverses the moves of res (the triggering flow must already be
// unplaced). Failures indicate ledger corruption and panic.
func (p *Planner) rollback(res *Result) {
	for i := len(res.Moves) - 1; i >= 0; i-- {
		m := res.Moves[i]
		if m.split != nil {
			p.undoSplit(m.split)
			continue
		}
		if err := p.net.Reroute(m.Flow, m.From); err != nil {
			panic(fmt.Sprintf("migration: rollback of %v failed: %v", m.Flow, err))
		}
	}
	res.Moves = nil
	res.MigratedTraffic = 0
}

// undoSplit reverses an applied split: children removed, victim re-placed.
func (p *Planner) undoSplit(sm *splitMove) {
	for _, child := range sm.children {
		p.mustRemove(child)
	}
	if err := p.net.Place(sm.original, sm.oldPath); err != nil {
		panic(fmt.Sprintf("migration: restoring split victim: %v", err))
	}
}

// mustRemove deletes a flow Apply registered; failure means the registry
// is corrupt.
func (p *Planner) mustRemove(f *flow.Flow) {
	if err := p.net.Remove(f); err != nil {
		panic(fmt.Sprintf("migration: removing split child: %v", err))
	}
}
