// Package migration implements the paper's core optimization: admitting a
// flow whose desired path is congested by locally migrating a small set of
// existing flows off the congested links (Definition 1, Section IV-A).
//
// Choosing the minimum-traffic migration set is NP-complete (a weighted
// covering problem: the freed bandwidth on every congested link must cover
// that link's deficit). The Planner approximates it greedily; three
// interchangeable heuristics are provided so the choice can be ablated.
package migration

import (
	"errors"
	"fmt"
	"slices"

	"netupdate/internal/flow"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/topology"
)

// ErrCannotAdmit is returned when no migration set can free enough
// bandwidth for the flow — some congested link's deficit is uncoverable.
var ErrCannotAdmit = errors.New("cannot admit flow even with migration")

// Strategy selects which candidate flow the greedy loop migrates next.
type Strategy int

// Greedy strategies, ablated by BenchmarkAblationGreedy.
const (
	// StrategyDensity picks the flow with the best ratio of deficit
	// coverage to migrated traffic — the classic greedy set-cover rule
	// and the default.
	StrategyDensity Strategy = iota + 1
	// StrategySmallest always migrates the smallest-demand useful flow,
	// minimizing per-move disturbance.
	StrategySmallest
	// StrategyLargest always migrates the largest-demand useful flow,
	// minimizing the number of moves.
	StrategyLargest
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyDensity:
		return "density"
	case StrategySmallest:
		return "smallest"
	case StrategyLargest:
		return "largest"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// DesiredPolicy selects how the desired path of a flow being admitted is
// chosen from its candidate set P(f) (Definition 1 examines the congested
// links of the desired path).
type DesiredPolicy int

const (
	// DesiredHash pins each flow to an ECMP-hash-selected member of P(f),
	// like a statically configured data center: when that path lacks
	// capacity the flow needs migration even if other paths have room.
	// This is the regime of the paper's Fig. 1, where the probability of
	// accommodating a flow without migration falls steeply with
	// utilization, and it is the default.
	DesiredHash DesiredPolicy = iota + 1
	// DesiredWidest picks the currently widest candidate, modeling an
	// ideal load-aware routing layer that resorts to migration only when
	// every candidate path is full. With the path diversity of a fat-tree
	// this makes migration vanishingly rare.
	DesiredWidest
)

// Move records one applied migration: flow moved From -> To. When the
// move split the flow over two paths (SetAllowSplit), To is the first
// fragment's path and Split reports true.
type Move struct {
	Flow *flow.Flow
	From routing.Path
	To   routing.Path

	// split carries the bookkeeping to reverse a two-splittable move.
	split *splitMove
}

// Split reports whether this move split the flow across two paths.
func (m Move) Split() bool { return m.split != nil }

// Result describes a successful admission. All moves listed have already
// been applied to the network, and the triggering flow is placed on Path.
type Result struct {
	// Flow is the admitted flow.
	Flow *flow.Flow
	// Path is where the flow was placed.
	Path routing.Path
	// Moves lists the migrations applied, in application order.
	Moves []Move
	// MigratedTraffic is the sum of the demands of all migrated flows —
	// this admission's contribution to Cost(U) (Definition 2).
	MigratedTraffic topology.Bandwidth
	// Evals counts path/flow feasibility evaluations performed while
	// planning; the simulator charges plan time proportional to it.
	Evals int
}

// Admission is one flow's admission as planned on a netstate.View: the
// path the flow takes and the migrations that make room for it, in the
// order they apply. Plan fills it and Apply carries it out.
type Admission struct {
	// Path is where the flow goes (zero until planned).
	Path routing.Path
	// Steps holds the planned migrations. Plan appends to it, so one
	// buffer can hold the steps of many admissions.
	Steps []Step
	// MigratedTraffic is the sum of the migrated flows' demands.
	MigratedTraffic topology.Bandwidth
	// Evals counts the planning work, as Result.Evals.
	Evals int
}

// Step is one planned migration: a victim moved From -> To, or, when
// split, withdrawn and replaced by two children on To and To2.
type Step struct {
	// victim is the migrated flow as planning saw it (nil in a step
	// rebuilt from a record); Apply resolves the victim by victimID.
	victim   *flow.Flow
	victimID flow.ID
	from, to routing.Path
	// A split's second path, its children's demands and their IDs.
	split   bool
	to2     routing.Path
	demands [2]topology.Bandwidth
	ids     [2]flow.ID
}

// StepRecord is a Step as plain data: what a log keeps of a planned
// migration so the step can be applied again without planning it.
type StepRecord struct {
	Victim   flow.ID
	From, To routing.Path
	// Split, To2, Demands and IDs describe a split: the second child's
	// path, both children's demands and their flow IDs.
	Split   bool
	To2     routing.Path
	Demands [2]topology.Bandwidth
	IDs     [2]flow.ID
}

// Record returns the step as plain data.
func (s *Step) Record() StepRecord {
	return StepRecord{Victim: s.victimID, From: s.from, To: s.to,
		Split: s.split, To2: s.to2, Demands: s.demands, IDs: s.ids}
}

// StepOf rebuilds a step from its record.
func StepOf(r StepRecord) Step {
	return Step{victimID: r.Victim, from: r.From, to: r.To,
		split: r.Split, to2: r.To2, demands: r.Demands, ids: r.IDs}
}

// VictimID returns the migrated flow's ID.
func (s *Step) VictimID() flow.ID { return s.victimID }

// From returns the path the victim leaves.
func (s *Step) From() routing.Path { return s.from }

// To returns the victim's new path (a split's first child's).
func (s *Step) To() routing.Path { return s.to }

// Split reports whether the step splits the victim in two.
func (s *Step) Split() bool { return s.split }

// Planner admits flows into a Network, migrating existing flows when
// needed. The zero value is not usable; construct with NewPlanner.
type Planner struct {
	net        *netstate.Network
	strategy   Strategy
	desired    DesiredPolicy
	allowSplit bool
	// view is the planning view Admit plans on (see View).
	view *netstate.View
}

// NewPlanner returns a Planner over the given network. strategy 0 defaults
// to StrategyDensity; the desired-path policy defaults to DesiredHash.
func NewPlanner(net *netstate.Network, strategy Strategy) *Planner {
	if strategy == 0 {
		strategy = StrategyDensity
	}
	return &Planner{net: net, strategy: strategy, desired: DesiredHash}
}

// SetDesiredPolicy overrides how flows' desired paths are chosen.
func (p *Planner) SetDesiredPolicy(policy DesiredPolicy) { p.desired = policy }

// DesiredPolicy returns the active desired-path policy.
func (p *Planner) DesiredPolicy() DesiredPolicy { return p.desired }

// Network returns the planner's network.
func (p *Planner) Network() *netstate.Network { return p.net }

// View returns the planner's planning view of its network, reused by
// every plan: Reset it before planning. One view serves one plan at a
// time.
func (p *Planner) View() *netstate.View {
	if p.view == nil {
		p.view = netstate.NewView(p.net)
	}
	return p.view
}

// Plan plans f's admission on the view and claims it there: f is placed
// on a.Path and the victims of a.Steps are moved, on the view only. f
// must be unplaced on the view. On failure the view is as it was, the
// steps Plan appended are dropped, and the error wraps either
// netstate.ErrNoFeasiblePath (no candidates at all) or ErrCannotAdmit;
// a.Evals counts the planning work either way.
func (p *Planner) Plan(v *netstate.View, f *flow.Flow, a *Admission) error {
	candidates := v.Candidates(f)
	a.Evals += candidates.Len()
	if candidates.Len() == 0 {
		return fmt.Errorf("admit %v: no candidate paths: %w", f, netstate.ErrNoFeasiblePath)
	}
	desired := p.desiredPath(v, f, candidates)

	// Fast path: the desired path already has room.
	if v.Fits(desired, f.Demand) {
		if err := v.Claim(f, desired); err != nil {
			return fmt.Errorf("admit %v: %w", f, err)
		}
		a.Path = desired
		return nil
	}

	// Slow path: free the desired path's congested links by migrating
	// existing flows (Definition 1).
	lo, cost := len(a.Steps), a.MigratedTraffic
	if err := p.freeCapacity(v, f, desired, a); err != nil {
		p.unwind(v, a, lo, cost)
		return err
	}
	if err := v.Claim(f, desired); err != nil {
		// freeCapacity guarantees every deficit is covered, so a failure
		// here means the invariant broke; undo and report loudly.
		p.unwind(v, a, lo, cost)
		return fmt.Errorf("admit %v: placement after migration failed: %w", f, err)
	}
	a.Path = desired
	return nil
}

// unwind reverses the steps Plan appended past lo on the view, in
// reverse order, and drops them. Reversing what the view just accepted
// always fits; a failure means the view is corrupt and panics.
func (p *Planner) unwind(v *netstate.View, a *Admission, lo int, cost topology.Bandwidth) {
	for i := len(a.Steps) - 1; i >= lo; i-- {
		st := &a.Steps[i]
		if st.split {
			p.unwindSplit(v, st)
			continue
		}
		if err := v.Shift(st.victim, st.from); err != nil {
			panic(fmt.Sprintf("migration: unwinding the move of %v: %v", st.victim, err))
		}
	}
	a.Steps = a.Steps[:lo]
	a.MigratedTraffic = cost
}

// freeCapacity migrates existing flows on the view until every congested
// link of the desired path has at least f.Demand residual. Planned moves
// are appended to a; on error the caller unwinds them.
func (p *Planner) freeCapacity(v *netstate.View, f *flow.Flow, desired routing.Path, a *Admission) error {
	// A fat-tree path has at most six links, so the congested set and
	// the deficits fit the stack.
	var cbuf [6]topology.LinkID
	congested := v.AppendCongested(cbuf[:0], desired, f.Demand)
	if len(congested) == 0 {
		return nil
	}
	// deficit lists the congested links still short of f.Demand and how
	// much must still be freed on each, in path order.
	var buf [6]shortfall
	deficit := buf[:0]
	for _, l := range congested {
		deficit = append(deficit, shortfall{link: l, need: f.Demand - v.Residual(l)})
	}

	candidates := v.FlowsAcross(congested, f.Event)
	a.Evals += len(candidates)
	// Pre-filter to flows that are topologically detourable: a victim
	// pinned to every congested link (e.g. the link is its own host access
	// link, which every one of its paths crosses) can never free capacity,
	// and skipping it here keeps uncoverable deficits cheap to detect —
	// important because saturated access links are common at high
	// utilization and are exactly the unfixable case. The view's
	// FlowsAcross slice is scratch until the next call, so the filter
	// reuses it.
	var srcs, dsts [6]topology.NodeID
	pins := pinsOf(v.Graph(), congested, srcs[:0], dsts[:0])
	usable := candidates[:0]
	for _, cand := range candidates {
		if p.detourable(v, cand, congested, pins, &a.Evals) {
			usable = append(usable, cand)
		}
	}

	for len(deficit) > 0 {
		best := p.pickCandidate(v, usable, deficit, &a.Evals)
		if best == -1 {
			return newUncoveredError(f, deficit)
		}
		victim := usable[best]
		usable = append(usable[:best], usable[best+1:]...)

		oldPath := v.PathOf(victim)
		if newPath, ok := p.detourFor(v, victim, f, desired, congested, &a.Evals); ok {
			if err := v.Shift(victim, newPath); err != nil {
				// detourFor verified the bandwidth; only a data plane
				// short of rule slots refuses the move. Unusable.
				continue
			}
			a.Steps = append(a.Steps, Step{
				victim: victim, victimID: victim.ID,
				from: oldPath, to: newPath,
			})
			a.MigratedTraffic += victim.Demand
		} else if !p.trySplit(v, victim, f, desired, congested, a) {
			continue // unmigratable; the greedy loop tries the next flow
		}
		short := deficit[:0]
		for _, d := range deficit {
			if oldPath.Contains(d.link) {
				d.need -= victim.Demand
			}
			if d.need > 0 {
				short = append(short, d)
			}
		}
		deficit = short
	}
	return nil
}

// shortfall is a congested link of the desired path and the bandwidth
// still to be freed on it.
type shortfall struct {
	link topology.LinkID
	need topology.Bandwidth
}

// pickCandidate returns the index of the next flow to migrate according to
// the strategy, or -1 when no remaining candidate covers any deficit.
func (p *Planner) pickCandidate(v *netstate.View, usable []*flow.Flow, deficit []shortfall, evals *int) int {
	best := -1
	var bestScore float64
	for i, cand := range usable {
		*evals++
		cover := coverage(v.PathOf(cand), cand.Demand, deficit)
		if cover == 0 {
			continue
		}
		var score float64
		switch p.strategy {
		case StrategySmallest:
			score = -float64(cand.Demand)
		case StrategyLargest:
			score = float64(cand.Demand)
		default: // StrategyDensity
			score = float64(cover) / float64(cand.Demand)
		}
		if best == -1 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// coverage is how much of the outstanding deficits migrating a flow of
// the given demand off path would satisfy: min(demand, deficit) summed
// over the congested links the path crosses.
func coverage(path routing.Path, demand topology.Bandwidth, deficit []shortfall) topology.Bandwidth {
	var total topology.Bandwidth
	for _, d := range deficit {
		if path.Contains(d.link) {
			total += min(demand, d.need)
		}
	}
	return total
}

// desiredPath applies the desired-path policy to a non-empty candidate set.
func (p *Planner) desiredPath(v *netstate.View, f *flow.Flow, candidates routing.PathSet) routing.Path {
	if p.desired == DesiredWidest {
		path, _ := v.Widest(candidates)
		return path
	}
	return candidates.At(int(specHash(f) % uint64(candidates.Len())))
}

// specHash hashes the flow's immutable identity (FNV-1a over src, dst,
// demand, size, event). The registry-assigned flow ID is deliberately
// excluded so that probing an event and later executing it pin each flow
// to the same desired path, the way a 5-tuple ECMP hash would.
func specHash(f *flow.Flow) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range [...]uint64{
		uint64(f.Src), uint64(f.Dst), uint64(f.Demand), uint64(f.Size), uint64(f.Event),
	} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	return h
}

// pins lists the endpoints that pin a flow to a congested link: the tail
// of a congested link that is its tail's only out-link, and the head of
// one that is its head's only in-link. Every path leaves its source by
// one of the source's out-links and enters its destination by one of the
// destination's in-links, so a flow sourced at such a tail, or destined
// to such a head, crosses that congested link on every candidate path.
type pins struct {
	srcs, dsts []topology.NodeID
}

// pinsOf appends the pinning endpoints of the congested links to srcs and
// dsts.
func pinsOf(g *topology.Graph, congested []topology.LinkID, srcs, dsts []topology.NodeID) pins {
	ps := pins{srcs: srcs, dsts: dsts}
	for _, l := range congested {
		link := g.Link(l)
		if len(g.Out(link.From)) == 1 {
			ps.srcs = append(ps.srcs, link.From)
		}
		if len(g.In(link.To)) == 1 {
			ps.dsts = append(ps.dsts, link.To)
		}
	}
	return ps
}

// pin reports whether f is pinned to a congested link by its endpoints.
func (ps pins) pin(f *flow.Flow) bool {
	return slices.Contains(ps.srcs, f.Src) || slices.Contains(ps.dsts, f.Dst)
}

// detourable reports whether the victim has any candidate path that avoids
// every congested link on the view — a pure topology check, ignoring bandwidth. A
// victim its endpoints pin is ruled out without a scan, but is charged
// the one Eval per candidate path the scan would have spent, so plan
// time does not depend on how the answer was found.
func (p *Planner) detourable(v *netstate.View, victim *flow.Flow, congested []topology.LinkID, pins pins, evals *int) bool {
	candidates := v.Candidates(victim)
	if pins.pin(victim) {
		*evals += candidates.Len()
		return false
	}
	old := v.PathOf(victim)
scan:
	for i, n := 0, candidates.Len(); i < n; i++ {
		*evals++
		q := candidates.At(i)
		if q.Equal(old) {
			continue
		}
		for _, l := range congested {
			if q.Contains(l) {
				continue scan
			}
		}
		return true
	}
	return false
}

// detourFor finds a new path for victim that (a) avoids every congested
// link, (b) fits victim's demand once its own reservations are released,
// and (c) leaves room for the triggering flow on any shared link of the
// desired path — so migrations can never re-congest the path they are
// clearing (constraint (5) of the paper, strengthened to avoid oscillation).
func (p *Planner) detourFor(v *netstate.View, victim, trigger *flow.Flow, desired routing.Path, congested []topology.LinkID, evals *int) (routing.Path, bool) {
	old := v.PathOf(victim)
	candidates := v.Candidates(victim)

	best := -1
	var bestResidual topology.Bandwidth
scan:
	for i, n := 0, candidates.Len(); i < n; i++ {
		*evals++
		q := candidates.At(i)
		if q.Equal(old) {
			continue
		}
		for _, l := range congested {
			if q.Contains(l) {
				continue scan
			}
		}
		bottleneck := topology.Bandwidth(1<<62 - 1)
		for j, m := 0, q.Len(); j < m; j++ {
			l := q.Link(j)
			r := v.Residual(l)
			if old.Contains(l) {
				r += victim.Demand // own reservation will be released
			}
			if desired.Contains(l) {
				r -= trigger.Demand // keep headroom for the new flow
			}
			if r < bottleneck {
				bottleneck = r
			}
		}
		if bottleneck < victim.Demand {
			continue
		}
		if best == -1 || bottleneck > bestResidual {
			best, bestResidual = i, bottleneck
		}
	}
	if best == -1 {
		return routing.Path{}, false
	}
	return candidates.At(best), true
}

// uncoveredError reports a flow whose deficits no migration set covers.
// Admission failures are routine at high utilization and their text is
// rarely read, so it holds the flow's fields by value and renders lazily.
type uncoveredError struct {
	flow  flow.Flow
	links int
	short topology.Bandwidth
}

func newUncoveredError(f *flow.Flow, deficit []shortfall) *uncoveredError {
	e := &uncoveredError{flow: *f, links: len(deficit)}
	for _, d := range deficit {
		e.short += d.need
	}
	return e
}

func (e *uncoveredError) Error() string {
	return fmt.Sprintf("admit %v: deficits %d links short %v total uncovered: %v",
		&e.flow, e.links, e.short, ErrCannotAdmit)
}

func (e *uncoveredError) Unwrap() error { return ErrCannotAdmit }
