package migration

import (
	"fmt"

	"netupdate/internal/flow"
	"netupdate/internal/routing"
	"netupdate/internal/topology"
)

// Two-splittable migration (an extension after Foerster & Wattenhofer
// [18], the paper's related work): when a victim flow has no single
// detour with enough residual bandwidth, it may instead be split across
// two detours whose residuals together cover its demand. The original
// flow is withdrawn and replaced by two child flows; rollback removes the
// children and restores the original placement.
//
// Only background flows (flow.NoEvent) are split: event flows are tracked
// by the simulator's release heap under their original identity and must
// stay whole.

// SetAllowSplit enables two-splittable migration as a fallback when no
// single detour fits a victim.
func (p *Planner) SetAllowSplit(allow bool) { p.allowSplit = allow }

// splitMove records a split for rollback: the original flow's placement
// and the two children standing in for it.
type splitMove struct {
	original *flow.Flow
	oldPath  routing.Path
	children [2]*flow.Flow
}

// trySplit migrates victim off the congested links by splitting it over
// two acceptable detours. On success the children are placed, the victim
// withdrawn, and a Move (with split bookkeeping) appended to res.
func (p *Planner) trySplit(victim, trigger *flow.Flow, desired routing.Path, congested []topology.LinkID, res *Result) bool {
	if !p.allowSplit || victim.Event != flow.NoEvent {
		return false
	}
	g := p.net.Graph()
	old := victim.Path()

	// Gather acceptable detours with their usable headroom, mirroring
	// detourFor's constraints (avoid congested links; keep room for the
	// triggering flow on shared desired-path links). The victim's own
	// reservation is NOT credited: the two children must fit alongside it
	// until it is withdrawn, and computing against live state keeps the
	// placement order below safe.
	type option struct {
		path routing.Path
		room topology.Bandwidth
	}
	var options []option
	candidates := p.net.Candidates(victim)
scan:
	for i, n := 0, candidates.Len(); i < n; i++ {
		res.Evals++
		q := candidates.At(i)
		if q.Equal(old) {
			continue
		}
		for _, l := range congested {
			if q.Contains(l) {
				continue scan
			}
		}
		room := topology.Bandwidth(1<<62 - 1)
		for j, m := 0, q.Len(); j < m; j++ {
			l := q.Link(j)
			r := g.Link(l).Residual()
			if old.Contains(l) {
				r += victim.Demand // freed once the victim is withdrawn
			}
			if desired.Contains(l) {
				r -= trigger.Demand
			}
			if r < room {
				room = r
			}
		}
		if room <= 0 {
			continue
		}
		options = append(options, option{path: q, room: room})
	}
	if len(options) < 2 {
		return false
	}
	// Pick the two roomiest (they may share links — headroom computed
	// per-path may double count; re-verify after the first child lands).
	best, second := -1, -1
	for i, o := range options {
		switch {
		case best == -1 || o.room > options[best].room:
			best, second = i, best
		case second == -1 || o.room > options[second].room:
			second = i
		}
	}
	if options[best].room+options[second].room < victim.Demand {
		return false
	}

	// Withdraw the victim first so its bandwidth is free for the children;
	// on any failure, restore it (its old reservations are still free).
	if err := p.net.Withdraw(victim); err != nil {
		return false
	}
	restore := func() {
		if err := p.net.Place(victim, old); err != nil {
			panic(fmt.Sprintf("migration: restoring split victim: %v", err))
		}
	}
	d1 := options[best].room
	if d1 > victim.Demand {
		d1 = victim.Demand
	}
	d2 := victim.Demand - d1
	if d2 == 0 {
		// The roomiest path alone fits once the victim's own reservation
		// is released — a plain detour, cheaper than a split.
		restore()
		return false
	}

	child1, err := p.placeChild(victim, d1, options[best].path)
	if err != nil {
		restore()
		return false
	}
	child2, err := p.placeChild(victim, d2, options[second].path)
	if err != nil {
		if rmErr := p.net.Remove(child1); rmErr != nil {
			panic(fmt.Sprintf("migration: unwinding split child: %v", rmErr))
		}
		restore()
		return false
	}
	res.Moves = append(res.Moves, Move{
		Flow: victim,
		From: old,
		To:   options[best].path,
		split: &splitMove{
			original: victim,
			oldPath:  old,
			children: [2]*flow.Flow{child1, child2},
		},
	})
	res.MigratedTraffic += victim.Demand
	return true
}

// placeChild registers and places one fragment of a split victim.
func (p *Planner) placeChild(victim *flow.Flow, demand topology.Bandwidth, path routing.Path) (*flow.Flow, error) {
	child, err := p.net.AddFlow(flow.Spec{
		Src:    victim.Src,
		Dst:    victim.Dst,
		Demand: demand,
		Size:   victim.Size / 2,
		Event:  victim.Event,
	})
	if err != nil {
		return nil, err
	}
	if err := p.net.Place(child, path); err != nil {
		if rmErr := p.net.Remove(child); rmErr != nil {
			panic(fmt.Sprintf("migration: removing failed child: %v", rmErr))
		}
		return nil, err
	}
	return child, nil
}

// undoSplit reverses a split move: children removed, victim re-placed.
func (p *Planner) undoSplit(sm *splitMove) {
	for _, child := range sm.children {
		if err := p.net.Remove(child); err != nil {
			panic(fmt.Sprintf("migration: removing split child: %v", err))
		}
	}
	if err := p.net.Place(sm.original, sm.oldPath); err != nil {
		panic(fmt.Sprintf("migration: restoring split victim: %v", err))
	}
}
