package consistency

import (
	"errors"
	"testing"

	"netupdate/internal/routing"
	"netupdate/internal/rules"
	"netupdate/internal/topology"
)

// env builds a k=4 fat-tree with two disjoint-middle cross-pod paths for
// the same host pair plus a rule manager.
func env(t *testing.T, capacity int) (*rules.Manager, routing.Path, routing.Path, *topology.Graph) {
	t.Helper()
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	prov := routing.NewFatTreeProvider(ft)
	paths := prov.Paths(ft.Host(0, 0, 0), ft.Host(1, 0, 0))
	if paths.Len() < 2 {
		t.Fatal("need two candidate paths")
	}
	return rules.NewManager(ft.Graph(), capacity), paths.At(0), paths.At(1), ft.Graph()
}

func TestNewFlowPlan(t *testing.T) {
	m, path, _, _ := env(t, 0)
	plan := InstallAt(1, 1, path)
	if plan.NewVersion != 1 {
		t.Errorf("NewVersion = %d, want 1", plan.NewVersion)
	}
	ops, err := Apply(plan, m)
	if err != nil {
		t.Fatal(err)
	}
	if ops != 5 { // 5 switch hops installed; flip is not a table op
		t.Errorf("applied ops = %d, want 5", ops)
	}
	if !m.PathInstalled(1, 1, path) {
		t.Error("rules not installed")
	}
}

func TestMovePlanTwoPhase(t *testing.T) {
	m, oldPath, newPath, _ := env(t, 0)
	if _, err := Apply(InstallAt(1, 1, oldPath), m); err != nil {
		t.Fatal(err)
	}
	before := m.TotalEntries()

	plan := Move(1, 1, oldPath, newPath)
	if plan.NewVersion != 2 {
		t.Errorf("NewVersion = %d, want 2", plan.NewVersion)
	}
	if _, err := Apply(plan, m); err != nil {
		t.Fatal(err)
	}
	if !m.PathInstalled(1, 2, newPath) {
		t.Error("new generation not installed")
	}
	if m.PathInstalled(1, 1, oldPath) {
		t.Error("old generation still installed")
	}
	// Steady-state table occupancy is unchanged (same path lengths).
	if got := m.TotalEntries(); got != before {
		t.Errorf("TotalEntries = %d, want %d", got, before)
	}
}

func TestTeardownPlan(t *testing.T) {
	m, path, _, _ := env(t, 0)
	if _, err := Apply(InstallAt(1, 1, path), m); err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(Teardown(1, 1, path), m); err != nil {
		t.Fatal(err)
	}
	if got := m.TotalEntries(); got != 0 {
		t.Errorf("TotalEntries = %d, want 0", got)
	}
}

func TestApplyRejectsRemoveBeforeFlip(t *testing.T) {
	m, oldPath, newPath, _ := env(t, 0)
	if _, err := Apply(InstallAt(1, 1, oldPath), m); err != nil {
		t.Fatal(err)
	}
	bad := Plan{
		Flow:       1,
		NewVersion: 2,
		Ops: []Op{
			{Kind: OpRemove, Flow: 1, Version: 1, Path: oldPath},
			{Kind: OpInstall, Flow: 1, Version: 2, Path: newPath},
			{Kind: OpFlipIngress, Flow: 1, Version: 2, Path: newPath},
		},
	}
	if _, err := Apply(bad, m); !errors.Is(err, ErrInconsistentPlan) {
		t.Errorf("Apply(bad order) error = %v, want ErrInconsistentPlan", err)
	}
}

func TestApplyRejectsFlipBeforeInstall(t *testing.T) {
	m, path, _, _ := env(t, 0)
	bad := Plan{
		Flow:       1,
		NewVersion: 1,
		Ops: []Op{
			{Kind: OpFlipIngress, Flow: 1, Version: 1, Path: path},
		},
	}
	if _, err := Apply(bad, m); !errors.Is(err, ErrInconsistentPlan) {
		t.Errorf("Apply(flip first) error = %v, want ErrInconsistentPlan", err)
	}
}

// TestTwoPhaseNeedsHeadroom demonstrates the known cost of per-packet
// consistency (Katta et al. [3]): during the transition both generations
// coexist, so a full table blocks the move even though the steady state
// would fit.
func TestTwoPhaseNeedsHeadroom(t *testing.T) {
	m, oldPath, newPath, g := env(t, 1) // 1 entry per switch
	if _, err := Apply(InstallAt(1, 1, oldPath), m); err != nil {
		t.Fatal(err)
	}
	// The two paths share the first edge switch; its table is full with
	// the old generation, so the new generation cannot be staged.
	_ = g
	plan := Move(1, 1, oldPath, newPath)
	if _, err := Apply(plan, m); !errors.Is(err, rules.ErrTableFull) {
		t.Errorf("Apply over full tables error = %v, want ErrTableFull", err)
	}
	// The failed move left the old generation intact (rollback).
	if !m.PathInstalled(1, 1, oldPath) {
		t.Error("old generation lost after failed move")
	}
}

func TestOpKindString(t *testing.T) {
	for k, want := range map[OpKind]string{
		OpInstall:     "install",
		OpFlipIngress: "flip-ingress",
		OpRemove:      "remove",
		OpKind(9):     "OpKind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("OpKind.String() = %q, want %q", got, want)
		}
	}
}
