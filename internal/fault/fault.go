// Package fault models failures as first-class, replayable inputs to a
// simulation run. A Script is an ordered list of Injections — link
// failures and recoveries, switch reboots, rule-install timeouts — each
// stamped with the virtual time at which it fires. An Injector walks a
// script in step with the simulator's virtual clock, so the same seed and
// the same script always produce the same failure sequence: chaos tests
// become deterministic and their traces byte-comparable. A script is built
// in code (RandomScript or a literal); it has no file format.
//
// The package deliberately knows nothing about the engine. It only
// describes what should fail and when; internal/sim owns how the schedule
// reacts (withdrawing flows, minting repair events, retrying installs).
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"netupdate/internal/topology"
)

// Action names one kind of injected fault.
type Action string

const (
	// LinkDown fails a single directed link. Placed flows crossing it are
	// withdrawn and re-admitted as a repair event.
	LinkDown Action = "link-down"
	// LinkUp repairs a previously failed link.
	LinkUp Action = "link-up"
	// SwitchDown reboots a switch: every incident link goes down.
	SwitchDown Action = "switch-down"
	// SwitchUp brings a rebooted switch's links back.
	SwitchUp Action = "switch-up"
	// InstallTimeout makes the rule installs of one event time out Times
	// times before succeeding; past the engine's retry budget the event is
	// rolled back instead.
	InstallTimeout Action = "install-timeout"
)

// valid reports whether a is a known action.
func (a Action) valid() bool {
	switch a {
	case LinkDown, LinkUp, SwitchDown, SwitchUp, InstallTimeout:
		return true
	}
	return false
}

// Injection is one scheduled fault. Exactly one of Link/Node/Event is
// meaningful depending on Action.
type Injection struct {
	// At is the virtual time at which the fault fires.
	At time.Duration
	// Action selects the fault kind.
	Action Action
	// Link is the target link for LinkDown/LinkUp.
	Link int
	// Node is the target switch for SwitchDown/SwitchUp.
	Node int
	// Event targets InstallTimeout at a specific event ID; zero means the
	// next event to execute after the fault fires.
	Event int64
	// Times is how many consecutive installs fail for InstallTimeout
	// (default 1). Beyond the engine's retry budget the event rolls back.
	Times int
}

// Validate checks the injection against a topology of numNodes nodes and
// numLinks links.
func (inj Injection) Validate(numNodes, numLinks int) error {
	if inj.At < 0 {
		return fmt.Errorf("fault at %v: negative time", inj.At)
	}
	if !inj.Action.valid() {
		return fmt.Errorf("fault at %v: unknown action %q", inj.At, inj.Action)
	}
	switch inj.Action {
	case LinkDown, LinkUp:
		if inj.Link < 0 || inj.Link >= numLinks {
			return fmt.Errorf("fault %s at %v: link %d out of range [0,%d)",
				inj.Action, inj.At, inj.Link, numLinks)
		}
	case SwitchDown, SwitchUp:
		if inj.Node < 0 || inj.Node >= numNodes {
			return fmt.Errorf("fault %s at %v: node %d out of range [0,%d)",
				inj.Action, inj.At, inj.Node, numNodes)
		}
	case InstallTimeout:
		if inj.Times < 0 {
			return fmt.Errorf("fault %s at %v: negative times %d", inj.Action, inj.At, inj.Times)
		}
		if inj.Event < 0 {
			return fmt.Errorf("fault %s at %v: negative event %d", inj.Action, inj.At, inj.Event)
		}
	}
	return nil
}

// TargetLinks resolves a link or switch injection to the set of links it
// flips, plus the kind label of the repair event a failure may mint
// ("link-repair" / "switch-repair"). Other actions return nil.
func (inj Injection) TargetLinks(g *topology.Graph) ([]topology.LinkID, string) {
	switch inj.Action {
	case LinkDown, LinkUp:
		return []topology.LinkID{topology.LinkID(inj.Link)}, "link-repair"
	case SwitchDown, SwitchUp:
		return g.IncidentLinks(topology.NodeID(inj.Node)), "switch-repair"
	}
	return nil, ""
}

// Script is a fault schedule. Order within equal timestamps is
// preserved, so a script is itself part of the deterministic input.
type Script []Injection

// Sorted returns a copy of the script stably sorted by firing time.
func (s Script) Sorted() Script {
	out := make(Script, len(s))
	copy(out, s)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Injector walks a script in virtual-time order. It is driven by the
// simulator's single-threaded loop; it is not safe for concurrent use.
type Injector struct {
	script Script
	next   int
}

// NewInjector returns an injector over the script, stably sorted by time.
func NewInjector(s Script) *Injector {
	return &Injector{script: s.Sorted()}
}

// Due returns the injections with At <= now that have not fired yet, in
// script order, and marks them fired.
func (in *Injector) Due(now time.Duration) []Injection {
	start := in.next
	for in.next < len(in.script) && in.script[in.next].At <= now {
		in.next++
	}
	if in.next == start {
		return nil
	}
	return in.script[start:in.next]
}

// NextAt returns the firing time of the next pending injection, if any.
func (in *Injector) NextAt() (time.Duration, bool) {
	if in.next >= len(in.script) {
		return 0, false
	}
	return in.script[in.next].At, true
}

// RandomScript generates a deterministic script of n link failure +
// recovery pairs on the fabric (switch-to-switch) links of g. Failures
// are uniform over [0, horizon); each repair follows its failure by
// mttr/2 + U[0, mttr). The same seed and graph always yield the same
// script. It returns nil when the graph has no fabric links.
func RandomScript(seed int64, g *topology.Graph, n int, horizon, mttr time.Duration) Script {
	var fabric []topology.LinkID
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(topology.LinkID(i))
		if g.Node(l.From).Kind.IsSwitch() && g.Node(l.To).Kind.IsSwitch() {
			fabric = append(fabric, l.ID)
		}
	}
	if len(fabric) == 0 || n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var s Script
	for i := 0; i < n; i++ {
		link := int(fabric[rng.Intn(len(fabric))])
		downAt := time.Duration(rng.Int63n(int64(horizon)))
		upAt := downAt + mttr/2 + time.Duration(rng.Int63n(int64(mttr)))
		s = append(s,
			Injection{At: downAt, Action: LinkDown, Link: link},
			Injection{At: upAt, Action: LinkUp, Link: link},
		)
	}
	return s.Sorted()
}
