// Package consistency builds per-packet-consistent update plans in the
// style of Reitblatt et al. [2] (the paper's Section II): to move a flow
// from an old path to a new one, first install the new-generation rules at
// every switch of the new path, then flip the ingress to stamp packets
// with the new version, and only then remove the old-generation rules.
// Packets therefore always match a complete generation — never a mix.
//
// The plans drive package rules tables and give the simulator a concrete
// count of rule operations per flow move, refining the per-flow install
// time of the coarse model.
package consistency

import (
	"errors"
	"fmt"

	"netupdate/internal/flow"
	"netupdate/internal/routing"
	"netupdate/internal/rules"
)

// OpKind classifies one step of an update plan.
type OpKind int

// Plan operation kinds, in the order a two-phase update applies them.
const (
	// OpInstall adds a new-generation rule at one switch.
	OpInstall OpKind = iota + 1
	// OpFlipIngress atomically switches the ingress classifier to stamp
	// the new version (one rule modification at the first switch).
	OpFlipIngress
	// OpRemove deletes an old-generation rule at one switch.
	OpRemove
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpInstall:
		return "install"
	case OpFlipIngress:
		return "flip-ingress"
	case OpRemove:
		return "remove"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// ErrInconsistentPlan is returned when applying a plan out of order or
// against tables that do not match its preconditions.
var ErrInconsistentPlan = errors.New("consistency: inconsistent plan")

// Op is one step of an update plan.
type Op struct {
	Kind OpKind
	// Flow is the flow whose rules change.
	Flow flow.ID
	// Version is the rule generation the op concerns (OpInstall and
	// OpFlipIngress: the new generation; OpRemove: the old one).
	Version rules.Version
	// Path locates the rules (install ops target its switches).
	Path routing.Path
}

// Plan is an ordered, per-packet-consistent op sequence for one flow.
type Plan struct {
	Flow flow.ID
	Ops  []Op
	// NewVersion is the generation the plan transitions the flow to.
	NewVersion rules.Version
}

// InstallAt plans the installation of a flow's rules at generation v:
// install them on path, then enable the ingress. A first placement is
// generation 1; a flow re-placed after a withdrawal keeps its generation
// counter advancing.
func InstallAt(f flow.ID, v rules.Version, path routing.Path) Plan {
	return Plan{
		Flow:       f,
		NewVersion: v,
		Ops: []Op{
			{Kind: OpInstall, Flow: f, Version: v, Path: path},
			{Kind: OpFlipIngress, Flow: f, Version: v, Path: path},
		},
	}
}

// Move plans a per-packet-consistent migration of a flow from oldPath
// (generation oldV) to newPath: install oldV+1 on newPath, flip the
// ingress, remove oldV from oldPath.
func Move(f flow.ID, oldV rules.Version, oldPath, newPath routing.Path) Plan {
	v := oldV + 1
	return Plan{
		Flow:       f,
		NewVersion: v,
		Ops: []Op{
			{Kind: OpInstall, Flow: f, Version: v, Path: newPath},
			{Kind: OpFlipIngress, Flow: f, Version: v, Path: newPath},
			{Kind: OpRemove, Flow: f, Version: oldV, Path: oldPath},
		},
	}
}

// Teardown plans the removal of a finished flow's rules.
func Teardown(f flow.ID, v rules.Version, path routing.Path) Plan {
	return Plan{
		Flow:       f,
		NewVersion: v,
		Ops: []Op{
			{Kind: OpRemove, Flow: f, Version: v, Path: path},
		},
	}
}

// Apply executes the plan against the rule tables, op by op, verifying the
// two-phase safety property as it goes: the ingress may only flip once the
// new generation is fully installed, and old rules may only be removed
// after the flip. It returns the number of rule operations applied.
func Apply(p Plan, m *rules.Manager) (int, error) {
	flipped := false
	installed := false
	before := m.Ops()
	for i, op := range p.Ops {
		switch op.Kind {
		case OpInstall:
			if err := m.InstallPath(op.Flow, op.Version, op.Path); err != nil {
				return m.Ops() - before, fmt.Errorf("op %d: %w", i, err)
			}
			installed = true
		case OpFlipIngress:
			// Safety: the generation being flipped to must be complete.
			if !installed || !m.PathInstalled(op.Flow, op.Version, op.Path) {
				return m.Ops() - before, fmt.Errorf("op %d: flip before full install: %w", i, ErrInconsistentPlan)
			}
			flipped = true
		case OpRemove:
			// Initial teardown plans have no flip; migrations must flip
			// before removing the old generation.
			if len(p.Ops) > 1 && !flipped {
				return m.Ops() - before, fmt.Errorf("op %d: remove before flip: %w", i, ErrInconsistentPlan)
			}
			if err := m.RemovePath(op.Flow, op.Version, op.Path); err != nil {
				return m.Ops() - before, fmt.Errorf("op %d: %w", i, err)
			}
		default:
			return m.Ops() - before, fmt.Errorf("op %d: unknown kind %v: %w", i, op.Kind, ErrInconsistentPlan)
		}
	}
	return m.Ops() - before, nil
}
