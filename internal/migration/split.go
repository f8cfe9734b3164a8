package migration

import (
	"fmt"

	"netupdate/internal/flow"
	"netupdate/internal/netstate"
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

// splitMove records an applied split for rollback: the original flow's
// placement and the two children standing in for it.
type splitMove struct {
	original *flow.Flow
	oldPath  routing.Path
	children [2]*flow.Flow
}

// trySplit migrates victim off the congested links on the view by
// splitting it over two acceptable detours. On success the victim is
// withdrawn and two children minted and placed on the view, and a split
// Step appended to a.
func (p *Planner) trySplit(v *netstate.View, victim, trigger *flow.Flow, desired routing.Path, congested []topology.LinkID, a *Admission) bool {
	if !p.allowSplit || victim.Event != flow.NoEvent {
		return false
	}
	old := v.PathOf(victim)

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
	// A fat-tree pair has at most k²/4 candidates: 16 at k = 8.
	var buf [16]option
	options := buf[:0]
	candidates := v.Candidates(victim)
scan:
	for i, n := 0, candidates.Len(); i < n; i++ {
		a.Evals++
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
			r := v.Residual(l)
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
	if err := v.Vacate(victim); err != nil {
		return false
	}
	restore := func() {
		if err := v.Claim(victim, old); err != nil {
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

	child1, err := placeChild(v, victim, d1, options[best].path)
	if err != nil {
		restore()
		return false
	}
	child2, err := placeChild(v, victim, d2, options[second].path)
	if err != nil {
		if err := v.Vacate(child1); err != nil {
			panic(fmt.Sprintf("migration: unwinding split child: %v", err))
		}
		restore()
		return false
	}
	a.Steps = append(a.Steps, Step{
		victim: victim, victimID: victim.ID,
		from: old, to: options[best].path,
		split: true, to2: options[second].path,
		demands: [2]topology.Bandwidth{d1, d2},
		ids:     [2]flow.ID{child1.ID, child2.ID},
	})
	a.MigratedTraffic += victim.Demand
	return true
}

// childSpec is the spec of a split child of victim carrying demand.
func childSpec(victim *flow.Flow, demand topology.Bandwidth) flow.Spec {
	return flow.Spec{
		Src:    victim.Src,
		Dst:    victim.Dst,
		Demand: demand,
		Size:   victim.Size / 2,
		Event:  victim.Event,
	}
}

// placeChild mints one fragment of a split victim on the view and places
// it. A child that does not fit stays minted, unplaced: its ID is spent,
// as a registered-then-removed flow's would be.
func placeChild(v *netstate.View, victim *flow.Flow, demand topology.Bandwidth, path routing.Path) (*flow.Flow, error) {
	child := v.Mint(childSpec(victim, demand))
	if err := v.Claim(child, path); err != nil {
		return nil, err
	}
	return child, nil
}

// unwindSplit reverses a planned split on the view: children withdrawn,
// victim re-placed.
func (p *Planner) unwindSplit(v *netstate.View, st *Step) {
	for _, id := range st.ids {
		if err := v.Vacate(v.MintedFlow(id)); err != nil {
			panic(fmt.Sprintf("migration: unwinding split child: %v", err))
		}
	}
	if err := v.Claim(st.victim, st.from); err != nil {
		panic(fmt.Sprintf("migration: restoring split victim: %v", err))
	}
}
