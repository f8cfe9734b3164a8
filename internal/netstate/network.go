// Package netstate ties the substrate together: one Network value owns the
// graph (bandwidth bookkeeping), the routing provider (candidate paths) and
// the flow registry (who is where), and exposes the state transitions the
// paper's machinery needs — placing, withdrawing and rerouting unsplittable
// flows while preserving the congestion-free invariants of Section III-A.
package netstate

import (
	"errors"
	"fmt"

	"netupdate/internal/consistency"
	"netupdate/internal/flow"
	"netupdate/internal/routing"
	"netupdate/internal/rules"
	"netupdate/internal/topology"
)

// ErrNoFeasiblePath is returned when no candidate path can carry a flow's
// demand. Callers fall back to migration planning (Definition 1) when they
// see it.
var ErrNoFeasiblePath = errors.New("no feasible path")

// Network is the authoritative network state: graph + routing + flows.
// All mutation goes through its methods so the bandwidth ledger and the
// link index can never disagree.
//
// Network is not safe for concurrent use; the simulator serializes access.
type Network struct {
	graph    *topology.Graph
	provider routing.Provider
	selector routing.Selector
	reg      *flow.Registry
	// dataplane, when attached, mirrors every placement into per-switch
	// rule tables via per-packet-consistent plans.
	dataplane *rules.Manager
	// trial is the registry position at BeginTrial.
	trial flow.Mark
}

// ErrDataPlaneNotEmpty is returned by AttachDataPlane when flows are
// already placed (their rules would be missing from the tables).
var ErrDataPlaneNotEmpty = errors.New("netstate: attach data plane before placing flows")

// New assembles a Network from its parts. selector defaults to WidestFit
// when nil.
func New(g *topology.Graph, provider routing.Provider, selector routing.Selector) *Network {
	if selector == nil {
		selector = routing.WidestFit{}
	}
	return &Network{
		graph:    g,
		provider: provider,
		selector: selector,
		reg:      flow.NewRegistry(),
	}
}

// Graph returns the underlying graph (shared, live state).
func (n *Network) Graph() *topology.Graph { return n.graph }

// Fork returns a scratch copy of the network: the graph's reservation
// ledger and the flow registry are copied, while the immutable topology,
// the routing provider (with its path cache) and the selector are shared.
// Mutations on the fork never touch the live network. The data plane is
// not carried over.
//
// Fork is on no product path (cost probes run on the live network inside
// BeginTrial/EndTrial). Its signature is fixed by its two callers: the
// probe property tests use a fork as their reference oracle and
// bench/ times it as netstate.fork_ms.
func (n *Network) Fork() *Network {
	return &Network{
		graph:    n.graph.Fork(),
		provider: n.provider,
		selector: n.selector,
		reg:      n.reg.Fork(),
	}
}

// BeginTrial opens the bracket around a plan that will be rolled back in
// full (core.Planner's cost probes): the graph starts summing the
// trial's reservations (topology.Graph.BeginTrial) and the registry's
// position is marked. Place, Reroute, Withdraw, AddFlow and Remove work
// as usual in between.
func (n *Network) BeginTrial() {
	n.graph.BeginTrial()
	n.trial = n.reg.Mark()
}

// EndTrial closes the bracket after the rollback: the flow-ID counter is
// rewound to where the trial began, so the trial leaves no trace in the
// ID sequence. It panics if bandwidth or flows of the trial are still in
// place.
func (n *Network) EndTrial() {
	n.graph.EndTrial()
	n.reg.Rewind(n.trial)
}

// Provider returns the routing provider.
func (n *Network) Provider() routing.Provider { return n.provider }

// Selector returns the path selector (checkpoint recovery restores its
// RNG position through it).
func (n *Network) Selector() routing.Selector { return n.selector }

// Registry returns the flow registry (shared, live state).
func (n *Network) Registry() *flow.Registry { return n.reg }

// AttachDataPlane mirrors all future placements, reroutes and withdrawals
// into m's rule tables using two-phase consistent plans: placements become
// install+flip, reroutes become install+flip+remove (both generations
// briefly coexist), withdrawals become teardowns. Rule-table capacity then
// becomes a real admission constraint. Must be called before any flow is
// placed.
func (n *Network) AttachDataPlane(m *rules.Manager) error {
	if n.reg.NumPlaced() > 0 {
		return ErrDataPlaneNotEmpty
	}
	n.dataplane = m
	return nil
}

// DataPlane returns the attached rule tables (nil when none).
func (n *Network) DataPlane() *rules.Manager { return n.dataplane }

// AddFlow registers a new unplaced flow.
func (n *Network) AddFlow(spec flow.Spec) (*flow.Flow, error) {
	return n.reg.Add(spec)
}

// Candidates returns the feasible path set P(f) for the flow's endpoints.
func (n *Network) Candidates(f *flow.Flow) []routing.Path {
	return n.provider.Paths(f.Src, f.Dst)
}

// Place reserves the flow's demand on every link of path and binds the
// flow to it. On failure nothing is reserved and the flow stays unplaced.
func (n *Network) Place(f *flow.Flow, path routing.Path) error {
	if f.Placed() {
		return fmt.Errorf("place %v: %w", f, flow.ErrAlreadyPlaced)
	}
	if path.IsZero() {
		return fmt.Errorf("place %v: empty path", f)
	}
	if err := n.reserveAll(path, f.Demand); err != nil {
		return fmt.Errorf("place %v: %w", f, err)
	}
	if err := n.reg.Bind(f, path); err != nil {
		n.releaseAll(path, f.Demand)
		return err
	}
	if n.dataplane != nil {
		v := n.dataplane.CurrentVersion(f.ID) + 1
		if _, err := consistency.Apply(consistency.InstallAt(f.ID, v, path), n.dataplane); err != nil {
			if ubErr := n.reg.Unbind(f); ubErr != nil {
				panic(fmt.Sprintf("netstate: unbind during place rollback: %v", ubErr))
			}
			n.releaseAll(path, f.Demand)
			return fmt.Errorf("place %v: data plane: %w", f, err)
		}
	}
	return nil
}

// PlaceBest selects a feasible path for the flow using the configured
// selector and places it. It returns ErrNoFeasiblePath (wrapped) when no
// candidate fits the demand.
func (n *Network) PlaceBest(f *flow.Flow) (routing.Path, error) {
	candidates := n.Candidates(f)
	if len(candidates) == 0 {
		return routing.Path{}, fmt.Errorf("place %v: no candidate paths: %w", f, ErrNoFeasiblePath)
	}
	path, ok := n.selector.Select(n.graph, candidates, f.Demand)
	if !ok {
		return routing.Path{}, fmt.Errorf("place %v: %w", f, ErrNoFeasiblePath)
	}
	if err := n.Place(f, path); err != nil {
		return routing.Path{}, err
	}
	return path, nil
}

// Withdraw releases the flow's reservations and unbinds its path; the flow
// stays registered and can be placed again (migration uses this).
func (n *Network) Withdraw(f *flow.Flow) error {
	if !f.Placed() {
		return fmt.Errorf("withdraw %v: %w", f, flow.ErrNotPlaced)
	}
	path := f.Path()
	if n.dataplane != nil {
		v := n.dataplane.CurrentVersion(f.ID)
		if _, err := consistency.Apply(consistency.Teardown(f.ID, v, path), n.dataplane); err != nil {
			return fmt.Errorf("withdraw %v: data plane: %w", f, err)
		}
	}
	if err := n.reg.Unbind(f); err != nil {
		return err
	}
	n.releaseAll(path, f.Demand)
	return nil
}

// Remove withdraws the flow if placed and deletes it from the registry
// (e.g. a background flow finishing its transfer).
func (n *Network) Remove(f *flow.Flow) error {
	if f.Placed() {
		if err := n.Withdraw(f); err != nil {
			return err
		}
	}
	return n.reg.Remove(f)
}

// Reroute atomically moves a placed flow onto newPath. If newPath cannot
// accommodate the demand once the flow's own reservations are released —
// or, with a data plane attached, if the two-phase transition does not fit
// the rule tables — the flow is restored to its original path and the
// error returned (wrapping ErrNoFeasiblePath for bandwidth failures).
//
// With a data plane attached the move is per-packet consistent: the new
// generation's rules are fully installed before the ingress flips, and
// both generations briefly coexist in the tables.
func (n *Network) Reroute(f *flow.Flow, newPath routing.Path) error {
	if !f.Placed() {
		return fmt.Errorf("reroute %v: %w", f, flow.ErrNotPlaced)
	}
	oldPath := f.Path()

	// Move the bandwidth reservations first, without touching the data
	// plane (registry bind/unbind + ledger only).
	if err := n.reg.Unbind(f); err != nil {
		return err
	}
	n.releaseAll(oldPath, f.Demand)
	restoreOld := func() {
		if err := n.reserveAll(oldPath, f.Demand); err != nil {
			panic(fmt.Sprintf("netstate: restoring reservations: %v", err))
		}
		if err := n.reg.Bind(f, oldPath); err != nil {
			panic(fmt.Sprintf("netstate: restoring binding: %v", err))
		}
	}
	if err := n.reserveAll(newPath, f.Demand); err != nil {
		restoreOld()
		return fmt.Errorf("reroute %v: %w", f, ErrNoFeasiblePath)
	}
	if err := n.reg.Bind(f, newPath); err != nil {
		n.releaseAll(newPath, f.Demand)
		restoreOld()
		return err
	}

	if n.dataplane != nil {
		cur := n.dataplane.CurrentVersion(f.ID)
		if _, err := consistency.Apply(consistency.Move(f.ID, cur, oldPath, newPath), n.dataplane); err != nil {
			if ubErr := n.reg.Unbind(f); ubErr != nil {
				panic(fmt.Sprintf("netstate: unbind during reroute rollback: %v", ubErr))
			}
			n.releaseAll(newPath, f.Demand)
			restoreOld()
			return fmt.Errorf("reroute %v: data plane: %w", f, err)
		}
	}
	return nil
}

// DesiredPath returns the path the flow would prefer right now — the
// candidate with the largest bottleneck residual, regardless of
// feasibility. Definition 1 inspects the congested links of this path.
func (n *Network) DesiredPath(f *flow.Flow) (routing.Path, error) {
	path, _, ok := routing.Widest(n.graph, n.Candidates(f))
	if !ok {
		return routing.Path{}, fmt.Errorf("desired path for %v: no candidates", f)
	}
	return path, nil
}

// CongestedLinks returns the links of path whose residual is below the
// flow's demand — the set E^c_{f_a} of Definition 1.
func (n *Network) CongestedLinks(f *flow.Flow, path routing.Path) []topology.LinkID {
	return path.CongestedLinks(n.graph, f.Demand)
}

// FlowsAcross returns the union of flows traversing any of the given
// links — the candidate migration set F_A of Definition 1 — sorted by flow
// ID, excluding flows of the given event (an event never migrates its own
// flows to make room for itself).
func (n *Network) FlowsAcross(links []topology.LinkID, exclude flow.EventID) []*flow.Flow {
	seen := make(map[flow.ID]bool)
	var out []*flow.Flow
	for _, l := range links {
		for _, f := range n.reg.FlowsOn(l) {
			if seen[f.ID] {
				continue
			}
			if exclude != flow.NoEvent && f.Event == exclude {
				continue
			}
			seen[f.ID] = true
			out = append(out, f)
		}
	}
	// FlowsOn returns each link's flows ID-sorted, but the union across
	// links is not; restore global ID order for determinism.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// FailLinks marks the given links down and returns the placed flows that
// were traversing any of them (deduplicated, ID-sorted) together with how
// many links actually changed state. The flows are NOT withdrawn: their
// reservations still sit on the dead links, and the caller (the fault
// layer) decides whether to reroute, re-admit or drop them.
func (n *Network) FailLinks(links []topology.LinkID) (affected []*flow.Flow, changed int) {
	affected = n.FlowsAcross(links, flow.NoEvent)
	for _, l := range links {
		if n.graph.SetLinkDown(l, true) {
			changed++
		}
	}
	return affected, changed
}

// RestoreLinks marks the given links up again and returns how many
// actually changed state. Restored capacity becomes visible to the next
// scheduling round; no flows move automatically.
func (n *Network) RestoreLinks(links []topology.LinkID) (changed int) {
	for _, l := range links {
		if n.graph.SetLinkDown(l, false) {
			changed++
		}
	}
	return changed
}

// Utilization returns the overall link utilization of the graph.
func (n *Network) Utilization() float64 { return n.graph.Utilization() }

// reserveAll reserves demand on every link of path, rolling back on the
// first failure.
func (n *Network) reserveAll(path routing.Path, demand topology.Bandwidth) error {
	links := path.Links()
	for i, l := range links {
		if err := n.graph.Reserve(l, demand); err != nil {
			for _, undo := range links[:i] {
				n.mustRelease(undo, demand)
			}
			return err
		}
	}
	return nil
}

// releaseAll releases demand on every link of path.
func (n *Network) releaseAll(path routing.Path, demand topology.Bandwidth) {
	for _, l := range path.Links() {
		n.mustRelease(l, demand)
	}
}

// mustRelease releases bandwidth that is known to be reserved; failure
// indicates ledger corruption and panics rather than limping on.
func (n *Network) mustRelease(l topology.LinkID, demand topology.Bandwidth) {
	if err := n.graph.Release(l, demand); err != nil {
		panic(fmt.Sprintf("netstate: bandwidth ledger corrupt: %v", err))
	}
}
