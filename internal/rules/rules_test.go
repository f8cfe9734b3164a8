package rules

import (
	"errors"
	"testing"

	"netupdate/internal/routing"
	"netupdate/internal/topology"
)

func TestTableInstallRemove(t *testing.T) {
	tb := NewTable(5, 2)
	if tb.Node() != 5 || tb.Capacity() != 2 || tb.Len() != 0 || tb.Free() != 2 {
		t.Fatalf("fresh table state wrong: %+v", tb)
	}
	e1 := Entry{Key: Key{Flow: 1, Version: 1}, NextHop: 10}
	e2 := Entry{Key: Key{Flow: 2, Version: 1}, NextHop: 11}
	if err := tb.Install(e1); err != nil {
		t.Fatal(err)
	}
	if err := tb.Install(e1); !errors.Is(err, ErrDuplicateEntry) {
		t.Errorf("duplicate install error = %v", err)
	}
	if err := tb.Install(e2); err != nil {
		t.Fatal(err)
	}
	if tb.Free() != 0 {
		t.Errorf("Free = %d, want 0", tb.Free())
	}
	e3 := Entry{Key: Key{Flow: 3, Version: 1}, NextHop: 12}
	if err := tb.Install(e3); !errors.Is(err, ErrTableFull) {
		t.Errorf("full install error = %v", err)
	}
	got, ok := tb.Lookup(e1.Key)
	if !ok || got.NextHop != 10 {
		t.Errorf("Lookup = %+v,%v", got, ok)
	}
	if err := tb.Remove(e1.Key); err != nil {
		t.Fatal(err)
	}
	if err := tb.Remove(e1.Key); !errors.Is(err, ErrNoSuchEntry) {
		t.Errorf("double remove error = %v", err)
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d, want 1", tb.Len())
	}
}

func TestTableUnlimitedCapacity(t *testing.T) {
	tb := NewTable(0, 0)
	if tb.Free() != -1 {
		t.Errorf("unlimited Free = %d, want -1", tb.Free())
	}
	for i := 0; i < 1000; i++ {
		e := Entry{Key: Key{Flow: 1, Version: Version(i + 1)}, NextHop: 0}
		if err := tb.Install(e); err != nil {
			t.Fatalf("install %d: %v", i, err)
		}
	}
	if tb.Len() != 1000 {
		t.Errorf("Len = %d", tb.Len())
	}
}

func TestTableEntriesSortedAndVersions(t *testing.T) {
	tb := NewTable(0, 0)
	for _, k := range []Key{{Flow: 2, Version: 1}, {Flow: 1, Version: 2}, {Flow: 1, Version: 1}} {
		if err := tb.Install(Entry{Key: k}); err != nil {
			t.Fatal(err)
		}
	}
	es := tb.Entries()
	want := []Key{{Flow: 1, Version: 1}, {Flow: 1, Version: 2}, {Flow: 2, Version: 1}}
	for i, k := range want {
		if es[i].Key != k {
			t.Errorf("Entries[%d] = %+v, want %+v", i, es[i].Key, k)
		}
	}
	vs := tb.VersionsOf(1)
	if len(vs) != 2 || vs[0] != 1 || vs[1] != 2 {
		t.Errorf("VersionsOf(1) = %v", vs)
	}
	if got := tb.VersionsOf(99); got != nil {
		t.Errorf("VersionsOf(99) = %v, want nil", got)
	}
}

// ftPath builds a cross-pod path on a k=4 fat-tree (6 links, 5 internal
// switches... 6 links with 4 switch-source hops: host->edge->agg->core->
// agg->edge->host: 5 switch hops? host link's From is a host).
func ftPath(t *testing.T) (*topology.FatTree, routing.Path) {
	t.Helper()
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	prov := routing.NewFatTreeProvider(ft)
	paths := prov.Paths(ft.Host(0, 0, 0), ft.Host(1, 0, 0))
	return ft, paths.At(0)
}

func TestManagerInstallPath(t *testing.T) {
	ft, path := ftPath(t)
	m := NewManager(ft.Graph(), 0)

	if err := m.InstallPath(7, 1, path); err != nil {
		t.Fatal(err)
	}
	// A 6-link cross-pod path has 5 switch-sourced links (all but the
	// host's own uplink), so 5 rules.
	if got := m.TotalEntries(); got != 5 {
		t.Errorf("TotalEntries = %d, want 5", got)
	}
	if got := m.Ops(); got != 5 {
		t.Errorf("Ops = %d, want 5", got)
	}
	if !m.PathInstalled(7, 1, path) {
		t.Error("PathInstalled = false after install")
	}
	if m.PathInstalled(7, 2, path) {
		t.Error("PathInstalled true for wrong version")
	}
	if got := m.CurrentVersion(7); got != 1 {
		t.Errorf("CurrentVersion = %d, want 1", got)
	}

	if err := m.RemovePath(7, 1, path); err != nil {
		t.Fatal(err)
	}
	if got := m.TotalEntries(); got != 0 {
		t.Errorf("TotalEntries after remove = %d, want 0", got)
	}
	if got := m.Ops(); got != 10 {
		t.Errorf("Ops = %d, want 10", got)
	}
}

func TestManagerRollbackOnFullTable(t *testing.T) {
	ft, path := ftPath(t)
	// Capacity 1 per table; pre-fill the table of the path's last switch.
	m := NewManager(ft.Graph(), 1)
	links := path.Links()
	lastSwitchLink := links[len(links)-1] // From = last edge switch
	lastSwitch := ft.Graph().Link(lastSwitchLink).From
	tb, err := m.Table(lastSwitch)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Install(Entry{Key: Key{Flow: 99, Version: 1}}); err != nil {
		t.Fatal(err)
	}

	if err := m.InstallPath(7, 1, path); !errors.Is(err, ErrTableFull) {
		t.Fatalf("InstallPath error = %v, want ErrTableFull", err)
	}
	// Everything rolled back: only the pre-filled entry remains.
	if got := m.TotalEntries(); got != 1 {
		t.Errorf("TotalEntries after failed install = %d, want 1", got)
	}
	if m.PathInstalled(7, 1, path) {
		t.Error("PathInstalled true after failed install")
	}
}

func TestManagerTableOfHost(t *testing.T) {
	ft, _ := ftPath(t)
	m := NewManager(ft.Graph(), 0)
	if _, err := m.Table(ft.Host(0, 0, 0)); !errors.Is(err, ErrNotSwitch) {
		t.Errorf("Table(host) error = %v, want ErrNotSwitch", err)
	}
	if _, err := m.Table(ft.Core(0, 0)); err != nil {
		t.Errorf("Table(core): %v", err)
	}
}

func TestManagerVersionMonotonic(t *testing.T) {
	ft, path := ftPath(t)
	m := NewManager(ft.Graph(), 0)
	if err := m.InstallPath(7, 3, path); err != nil {
		t.Fatal(err)
	}
	// Installing an older generation must not regress the version.
	prov := routing.NewFatTreeProvider(ft)
	other := prov.Paths(ft.Host(0, 0, 1), ft.Host(1, 0, 1)).At(0)
	if err := m.InstallPath(7, 2, other); err != nil {
		t.Fatal(err)
	}
	if got := m.CurrentVersion(7); got != 3 {
		t.Errorf("CurrentVersion = %d, want 3", got)
	}
}
