package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/ctl"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
)

// startDaemon brings up a controller on an ephemeral port.
func startDaemon(t *testing.T) (addr string, ft *topology.FatTree) {
	t.Helper()
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	n := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.WidestFit{})
	planner := core.NewPlanner(migration.NewPlanner(n, 0), core.FailSkip)
	srv, _, err := ctl.New(ctl.Config{Planner: planner, Scheduler: sched.NewPLMTF(2, 1), Sim: sim.Config{InstallTime: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return l.Addr().String(), ft
}

func TestPingCommand(t *testing.T) {
	addr, _ := startDaemon(t)
	var out bytes.Buffer
	if code := run([]string{"-addr", addr, "ping"}, &out); code != 0 {
		t.Fatalf("ping exit = %d", code)
	}
	if !strings.Contains(out.String(), "ok") {
		t.Errorf("ping output = %q", out.String())
	}
}

func TestStatsCommand(t *testing.T) {
	addr, _ := startDaemon(t)
	var out bytes.Buffer
	if code := run([]string{"-addr", addr, "stats"}, &out); code != 0 {
		t.Fatalf("stats exit = %d", code)
	}
	for _, want := range []string{"scheduler", "p-lmtf", "events done"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stats output missing %q:\n%s", want, out.String())
		}
	}
}

func TestSubmitStatusResultsFlow(t *testing.T) {
	addr, ft := startDaemon(t)
	hosts := ft.Hosts()
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	line := `{"id":1,"kind":"test","flows":[` +
		`{"src":` + itoa(int(hosts[0])) + `,"dst":` + itoa(int(hosts[1])) + `,"demand_bps":1000000},` +
		`{"src":` + itoa(int(hosts[2])) + `,"dst":` + itoa(int(hosts[3])) + `,"demand_bps":2000000}]}` + "\n"
	if err := os.WriteFile(trace, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"-addr", addr, "submit", trace}, &out); code != 0 {
		t.Fatalf("submit exit = %d; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "submitted 1 events") ||
		!strings.Contains(out.String(), "done") {
		t.Errorf("submit output:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-addr", addr, "status", "1"}, &out); code != 0 {
		t.Fatalf("status exit = %d", code)
	}
	if !strings.Contains(out.String(), "done") {
		t.Errorf("status output:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-addr", addr, "results"}, &out); code != 0 {
		t.Fatalf("results exit = %d", code)
	}
	if !strings.Contains(out.String(), "event 1") {
		t.Errorf("results output:\n%s", out.String())
	}
}

func TestBadInvocations(t *testing.T) {
	addr, _ := startDaemon(t)
	var out bytes.Buffer
	if code := run([]string{"-addr", addr}, &out); code != 2 {
		t.Errorf("missing command exit = %d, want 2", code)
	}
	if code := run([]string{"-addr", addr, "bogus"}, &out); code != 2 {
		t.Errorf("unknown command exit = %d, want 2", code)
	}
	if code := run([]string{"-addr", addr, "status", "abc"}, &out); code != 2 {
		t.Errorf("bad id exit = %d, want 2", code)
	}
	if code := run([]string{"-addr", addr, "status"}, &out); code != 2 {
		t.Errorf("missing id exit = %d, want 2", code)
	}
	if code := run([]string{"-addr", addr, "submit"}, &out); code != 2 {
		t.Errorf("missing trace exit = %d, want 2", code)
	}
	if code := run([]string{"-addr", "127.0.0.1:1", "ping"}, &out); code != 1 {
		t.Errorf("unreachable daemon exit = %d, want 1", code)
	}
}

func itoa(v int) string { return strconv.Itoa(v) }

func TestFaultCommand(t *testing.T) {
	addr, ft := startDaemon(t)
	hosts := ft.Hosts()

	// Arm an install timeout, then submit an event to absorb it: the event
	// still completes (one timeout is survivable) and stats count the retry.
	var out bytes.Buffer
	if code := run([]string{"-addr", addr, "fault", "install-timeout", "-times", "1"}, &out); code != 0 {
		t.Fatalf("fault install-timeout exit = %d", code)
	}
	if !strings.Contains(out.String(), "fault install-timeout") {
		t.Errorf("fault output:\n%s", out.String())
	}
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	line := `{"id":1,"kind":"test","flows":[` +
		`{"src":` + itoa(int(hosts[0])) + `,"dst":` + itoa(int(hosts[1])) + `,"demand_bps":1000000}]}` + "\n"
	if err := os.WriteFile(trace, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-addr", addr, "submit", trace}, &out); code != 0 {
		t.Fatalf("submit exit = %d; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "1/1 flows admitted") {
		t.Errorf("submit output:\n%s", out.String())
	}

	// Flip a link down and back up; the gauge tracks both transitions.
	out.Reset()
	if code := run([]string{"-addr", addr, "fault", "link-down", "-link", "0"}, &out); code != 0 {
		t.Fatalf("fault link-down exit = %d", code)
	}
	if !strings.Contains(out.String(), "1 links changed") || !strings.Contains(out.String(), "1 links down") {
		t.Errorf("link-down output:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-addr", addr, "fault", "link-up", "-link", "0"}, &out); code != 0 {
		t.Fatalf("fault link-up exit = %d", code)
	}
	if !strings.Contains(out.String(), "0 links down") {
		t.Errorf("link-up output:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-addr", addr, "stats"}, &out); code != 0 {
		t.Fatalf("stats exit = %d", code)
	}
	for _, want := range []string{"3 injected", "0 links down", "1 retries, 0 rollbacks"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stats output missing %q:\n%s", want, out.String())
		}
	}

	// Bad invocations: missing action is usage (2), unknown action is a
	// server-side reject (1).
	if code := run([]string{"-addr", addr, "fault"}, &out); code != 2 {
		t.Errorf("missing action exit = %d, want 2", code)
	}
	if code := run([]string{"-addr", addr, "fault", "meteor-strike"}, &out); code != 1 {
		t.Errorf("unknown action exit = %d, want 1", code)
	}
}

func TestSnapshotCommand(t *testing.T) {
	addr, _ := startDaemon(t)
	var out bytes.Buffer
	if code := run([]string{"-addr", addr, "snapshot"}, &out); code != 0 {
		t.Fatalf("snapshot exit = %d", code)
	}
	if !strings.Contains(out.String(), `"version"`) || !strings.Contains(out.String(), `"nodes"`) {
		t.Errorf("snapshot output not a snapshot document:\n%.200s", out.String())
	}
}
