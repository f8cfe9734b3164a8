package rules

import (
	"fmt"

	"netupdate/internal/flow"
	"netupdate/internal/routing"
	"netupdate/internal/topology"
)

// Manager owns one Table per switch of a graph and installs/removes whole
// paths. Hosts have no tables; a path's rules live at its internal
// switches only.
type Manager struct {
	graph  *topology.Graph
	tables map[topology.NodeID]*Table
	// versions tracks each flow's current rule generation.
	versions map[flow.ID]Version
	// ops counts rule operations applied (installs + removals), the
	// quantity controller install time is proportional to.
	ops int
}

// NewManager creates tables for every switch of the graph, each with the
// given capacity (0 = unlimited).
func NewManager(g *topology.Graph, capacity int) *Manager {
	m := &Manager{
		graph:    g,
		tables:   make(map[topology.NodeID]*Table),
		versions: make(map[flow.ID]Version),
	}
	for _, n := range g.Nodes() {
		if n.Kind.IsSwitch() {
			m.tables[n.ID] = NewTable(n.ID, capacity)
		}
	}
	return m
}

// Table returns the table of the given switch.
func (m *Manager) Table(n topology.NodeID) (*Table, error) {
	t, ok := m.tables[n]
	if !ok {
		return nil, fmt.Errorf("node %d: %w", int(n), ErrNotSwitch)
	}
	return t, nil
}

// Ops returns the total rule operations applied so far.
func (m *Manager) Ops() int { return m.ops }

// CurrentVersion returns a flow's installed rule generation (0 if none).
func (m *Manager) CurrentVersion(f flow.ID) Version { return m.versions[f] }

// Forget drops a flow's rule generation once the flow is gone for good
// (netstate's Remove; a withdrawn flow keeps its generation, so placing
// it again installs a higher one). Without it the generations would
// grow with every flow ever placed.
func (m *Manager) Forget(f flow.ID) { delete(m.versions, f) }

// TotalEntries sums installed entries across all tables.
func (m *Manager) TotalEntries() int {
	total := 0
	for _, t := range m.tables {
		total += t.Len()
	}
	return total
}

// hopEntries lists the (switch, next-hop) pairs a path's rules occupy:
// for each link leaving a switch, that switch forwards the flow into it.
func (m *Manager) hopEntries(path routing.Path) []Entry {
	var out []Entry
	for i, n := 0, path.Len(); i < n; i++ {
		lid := path.Link(i)
		l := m.graph.Link(lid)
		if m.graph.Node(l.From).Kind.IsSwitch() {
			out = append(out, Entry{NextHop: lid, Key: Key{}})
		}
	}
	return out
}

// InstallPath installs version v rules for the flow along the path,
// rolling back on failure (e.g. a full table mid-path).
func (m *Manager) InstallPath(f flow.ID, v Version, path routing.Path) error {
	installed := make([]Entry, 0, path.Len())
	for _, proto := range m.hopEntries(path) {
		sw := m.graph.Link(proto.NextHop).From
		e := Entry{Key: Key{Flow: f, Version: v}, NextHop: proto.NextHop}
		t := m.tables[sw]
		if err := t.Install(e); err != nil {
			for _, undo := range installed {
				undoSw := m.graph.Link(undo.NextHop).From
				if rmErr := m.tables[undoSw].Remove(undo.Key); rmErr != nil {
					panic(fmt.Sprintf("rules: rollback remove: %v", rmErr))
				}
			}
			return fmt.Errorf("install flow %d v%d: %w", int64(f), uint64(v), err)
		}
		m.ops++
		installed = append(installed, e)
	}
	if v > m.versions[f] {
		m.versions[f] = v
	}
	return nil
}

// RemovePath removes version v rules for the flow along the path.
func (m *Manager) RemovePath(f flow.ID, v Version, path routing.Path) error {
	for _, proto := range m.hopEntries(path) {
		sw := m.graph.Link(proto.NextHop).From
		if err := m.tables[sw].Remove(Key{Flow: f, Version: v}); err != nil {
			return fmt.Errorf("remove flow %d v%d: %w", int64(f), uint64(v), err)
		}
		m.ops++
	}
	return nil
}

// PathInstalled reports whether every internal switch of the path holds
// the flow's version-v rule pointing along the path.
func (m *Manager) PathInstalled(f flow.ID, v Version, path routing.Path) bool {
	for _, proto := range m.hopEntries(path) {
		sw := m.graph.Link(proto.NextHop).From
		e, ok := m.tables[sw].Lookup(Key{Flow: f, Version: v})
		if !ok || e.NextHop != proto.NextHop {
			return false
		}
	}
	return true
}
