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

// Planner admits flows into a Network, migrating existing flows when
// needed. The zero value is not usable; construct with NewPlanner.
type Planner struct {
	net        *netstate.Network
	strategy   Strategy
	desired    DesiredPolicy
	allowSplit bool
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

// Admit places f into the network, applying migrations if its candidate
// paths lack capacity. On success the returned Result reflects the applied
// state; on failure the network is unchanged and the error wraps either
// netstate.ErrNoFeasiblePath (no candidates at all) or ErrCannotAdmit.
// Even on failure the Result is returned (with no moves) so callers can
// account for the planning work in Result.Evals.
func (p *Planner) Admit(f *flow.Flow) (*Result, error) {
	res := &Result{Flow: f}

	candidates := p.net.Candidates(f)
	res.Evals += candidates.Len()
	if candidates.Len() == 0 {
		return res, fmt.Errorf("admit %v: no candidate paths: %w", f, netstate.ErrNoFeasiblePath)
	}
	desired := p.desiredPath(f, candidates)

	// Fast path: the desired path already has room.
	if desired.Fits(p.net.Graph(), f.Demand) {
		if err := p.net.Place(f, desired); err != nil {
			return res, fmt.Errorf("admit %v: %w", f, err)
		}
		res.Path = desired
		return res, nil
	}

	// Slow path: free the desired path's congested links by migrating
	// existing flows (Definition 1).
	if err := p.freeCapacity(f, desired, res); err != nil {
		p.rollback(res)
		return res, err
	}
	if err := p.net.Place(f, desired); err != nil {
		// freeCapacity guarantees every deficit is covered, so a failure
		// here means the invariant broke; undo and report loudly.
		p.rollback(res)
		return res, fmt.Errorf("admit %v: placement after migration failed: %w", f, err)
	}
	res.Path = desired
	return res, nil
}

// Rollback undoes an Admit: the flow is withdrawn and every migrated flow
// returns to its original path (in reverse order, which is always
// feasible because it exactly reverses the applied reservations).
// It is used by trial planning (cost estimation) and by event-level
// rollback when a later flow of the same event cannot be admitted.
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

// freeCapacity migrates existing flows until every congested link of the
// desired path has at least f.Demand residual. Applied moves are appended
// to res; on error the caller rolls back.
func (p *Planner) freeCapacity(f *flow.Flow, desired routing.Path, res *Result) error {
	g := p.net.Graph()
	congested := desired.CongestedLinks(g, f.Demand)
	if len(congested) == 0 {
		return nil
	}
	// deficit lists the congested links still short of f.Demand and how
	// much must still be freed on each, in path order. A fat-tree path
	// has at most six links, so the list fits the stack.
	var buf [6]shortfall
	deficit := buf[:0]
	for _, l := range congested {
		deficit = append(deficit, shortfall{link: l, need: f.Demand - g.Link(l).Residual()})
	}

	candidates := p.net.FlowsAcross(congested, f.Event)
	res.Evals += len(candidates)
	// Pre-filter to flows that are topologically detourable: a victim
	// pinned to every congested link (e.g. the link is its own host access
	// link, which every one of its paths crosses) can never free capacity,
	// and skipping it here keeps uncoverable deficits cheap to detect —
	// important because saturated access links are common at high
	// utilization and are exactly the unfixable case. FlowsAcross returns
	// a fresh slice, so the filter reuses it.
	var srcs, dsts [6]topology.NodeID
	pins := pinsOf(g, congested, srcs[:0], dsts[:0])
	usable := candidates[:0]
	for _, cand := range candidates {
		if p.detourable(cand, congested, pins, res) {
			usable = append(usable, cand)
		}
	}

	for len(deficit) > 0 {
		best := p.pickCandidate(usable, deficit, res)
		if best == -1 {
			return newUncoveredError(f, deficit)
		}
		victim := usable[best]
		usable = append(usable[:best:best], usable[best+1:]...)

		oldPath := victim.Path()
		if newPath, ok := p.detourFor(victim, f, desired, congested, res); ok {
			if err := p.net.Reroute(victim, newPath); err != nil {
				// detourFor verified feasibility against live state, so
				// this only races with our own bookkeeping — unusable.
				continue
			}
			res.Moves = append(res.Moves, Move{Flow: victim, From: oldPath, To: newPath})
			res.MigratedTraffic += victim.Demand
		} else if !p.trySplit(victim, f, desired, congested, res) {
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
func (p *Planner) pickCandidate(usable []*flow.Flow, deficit []shortfall, res *Result) int {
	best := -1
	var bestScore float64
	for i, cand := range usable {
		res.Evals++
		cover := coverage(cand, deficit)
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

// coverage is how much of the outstanding deficits migrating cand away
// would satisfy: min(demand, deficit) summed over the congested links the
// flow currently crosses.
func coverage(cand *flow.Flow, deficit []shortfall) topology.Bandwidth {
	var total topology.Bandwidth
	for _, d := range deficit {
		if cand.Path().Contains(d.link) {
			total += min(cand.Demand, d.need)
		}
	}
	return total
}

// desiredPath applies the desired-path policy to a non-empty candidate set.
func (p *Planner) desiredPath(f *flow.Flow, candidates routing.PathSet) routing.Path {
	if p.desired == DesiredWidest {
		path, _, _ := routing.Widest(p.net.Graph(), candidates)
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
// every congested link — a pure topology check, ignoring bandwidth. A
// victim its endpoints pin is ruled out without a scan, but is charged
// the one Eval per candidate path the scan would have spent, so plan
// time does not depend on how the answer was found.
func (p *Planner) detourable(victim *flow.Flow, congested []topology.LinkID, pins pins, res *Result) bool {
	candidates := p.net.Candidates(victim)
	if pins.pin(victim) {
		res.Evals += candidates.Len()
		return false
	}
	old := victim.Path()
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
		return true
	}
	return false
}

// detourFor finds a new path for victim that (a) avoids every congested
// link, (b) fits victim's demand once its own reservations are released,
// and (c) leaves room for the triggering flow on any shared link of the
// desired path — so migrations can never re-congest the path they are
// clearing (constraint (5) of the paper, strengthened to avoid oscillation).
func (p *Planner) detourFor(victim, trigger *flow.Flow, desired routing.Path, congested []topology.LinkID, res *Result) (routing.Path, bool) {
	g := p.net.Graph()
	old := victim.Path()
	candidates := p.net.Candidates(victim)

	best := -1
	var bestResidual topology.Bandwidth
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
		bottleneck := topology.Bandwidth(1<<62 - 1)
		for j, m := 0, q.Len(); j < m; j++ {
			l := q.Link(j)
			r := g.Link(l).Residual()
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
