package main

import (
	"bufio"
	"bytes"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/topology"
)

// TestDaemonSmoke boots the daemon on ephemeral ports, drives one update
// event and one fault injection through a real ctl client, scrapes the
// telemetry endpoint, and shuts down cleanly via the signal path.
func TestDaemonSmoke(t *testing.T) {
	pr, pw := io.Pipe()
	stop := make(chan os.Signal, 1)
	done := make(chan int, 1)
	go func() {
		code := run([]string{
			"-addr", "127.0.0.1:0",
			"-k", "4",
			"-util", "0.3",
			"-scheduler", "p-lmtf",
			"-telemetry-addr", "127.0.0.1:0",
		}, pw, stop)
		_ = pw.Close()
		done <- code
	}()

	// The daemon prints its bound addresses before reporting ready.
	var addr, telemetryURL string
	var startup []string
	scanner := bufio.NewScanner(pr)
	for scanner.Scan() {
		line := scanner.Text()
		startup = append(startup, line)
		if s, ok := strings.CutPrefix(line, "updated: telemetry on "); ok {
			telemetryURL = s
		}
		if s, ok := strings.CutPrefix(line, "updated: listening on "); ok {
			addr = s
			break
		}
	}
	if addr == "" || telemetryURL == "" {
		t.Fatalf("daemon never reported its addresses; startup output:\n%s", strings.Join(startup, "\n"))
	}
	// Keep draining so later daemon prints never block on the pipe.
	go func() { _, _ = io.Copy(io.Discard, pr) }()

	client, err := ctl.Dial(addr)
	if err != nil {
		t.Fatalf("dial daemon: %v", err)
	}
	defer client.Close()

	// One update event end to end.
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	hosts := ft.Hosts()
	id, err := client.Submit(ctl.EventSpec{Kind: "smoke", Flows: []ctl.FlowSpec{
		{Src: int(hosts[0]), Dst: int(hosts[1]), DemandBps: 1e6},
	}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err := client.WaitDone(id, 10*time.Second)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.Admitted != 1 || st.Failed != 0 {
		t.Errorf("admitted/failed = %d/%d, want 1/0", st.Admitted, st.Failed)
	}

	// One fault injection, visible in stats and on the telemetry scrape.
	res, err := client.Fault(ctl.FaultSpec{Action: "link-down", Link: 0})
	if err != nil {
		t.Fatalf("fault: %v", err)
	}
	if res.LinksChanged != 1 || res.LinksDown != 1 {
		t.Errorf("fault result = %+v, want 1 link down", res)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.FaultsInjected != 1 || stats.LinksDown != 1 {
		t.Errorf("stats faults/links down = %d/%d, want 1/1", stats.FaultsInjected, stats.LinksDown)
	}
	resp, err := http.Get(telemetryURL)
	if err != nil {
		t.Fatalf("telemetry scrape: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("telemetry status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "netupdate_faults_injected_total 1") {
		t.Errorf("/metrics missing fault counter; body:\n%.500s", body)
	}

	// Clean shutdown through the signal path.
	stop <- os.Interrupt
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("daemon exit = %d, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down within 10s")
	}
}

// TestDaemonBadFlags covers the fast-fail startup paths.
func TestDaemonBadFlags(t *testing.T) {
	stop := make(chan os.Signal)
	if code := run([]string{"-scheduler", "bogus"}, io.Discard, stop); code != 2 {
		t.Errorf("unknown scheduler exit = %d, want 2", code)
	}
	if code := run([]string{"-nonsense"}, io.Discard, stop); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
	if code := run([]string{"-k", "3"}, io.Discard, stop); code != 1 {
		t.Errorf("odd arity exit = %d, want 1", code)
	}
	// A usage error is a usage error in every mode.
	for _, mode := range [][]string{
		nil,
		{"-shards", "2"},
		{"-shard-id", "2", "-shard-of", "2"},
		{"-shard-addrs", "127.0.0.1:1,127.0.0.1:2"},
	} {
		bads := [][]string{
			{"-scheduler", "bogus"},
			{"-wal-dir", t.TempDir(), "-wal-sync", "sometimes"},
		}
		if mode != nil {
			// Every sharded mode sizes a cross pool; one engine has none.
			bads = append(bads, []string{"-cross-pool-frac", "NaN"}, []string{"-cross-pool-frac", "1"})
		}
		for _, bad := range bads {
			args := append(append([]string{"-k", "4"}, mode...), bad...)
			if code := run(args, io.Discard, stop); code != 2 {
				t.Errorf("run(%v) = %d, want 2", args, code)
			}
		}
	}
}

// TestDaemonModesWriteTheirOwnLogs pins, per engine-building mode, where
// the WAL lands and the meta its first segment opens with — literals
// captured before the modes shared one builder, so a log written then
// still passes wal.Meta.Check (whole-struct equality) now.
func TestDaemonModesWriteTheirOwnLogs(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode []string
		logs map[string]string // directory under -wal-dir → meta JSON
	}{
		{"plain", nil, map[string]string{
			".": `{"format":1,"scheduler":"fifo","seed":1,"k":4,"util":0.2,"watermark":4096,"tables":-1}`,
		}},
		{"plain with tables", []string{"-tables", "0"}, map[string]string{
			".": `{"format":1,"scheduler":"fifo","seed":1,"k":4,"util":0.2,"watermark":4096,"tables":0}`,
		}},
		{"cluster", []string{"-shards", "2"}, map[string]string{
			"shard-1": `{"format":1,"scheduler":"fifo","seed":1,"k":4,"util":0.2,"watermark":4096,"tables":0,"shard":1,"shards":2}`,
			"shard-2": `{"format":1,"scheduler":"fifo","seed":1,"k":4,"util":0.2,"watermark":4096,"tables":0,"shard":2,"shards":2}`,
		}},
		{"slot", []string{"-shard-id", "2", "-shard-of", "2"}, map[string]string{
			"shard-2": `{"format":1,"scheduler":"fifo","seed":1,"k":4,"util":0.2,"watermark":4096,"tables":0,"shard":2,"shards":2}`,
		}},
	} {
		dir := t.TempDir()
		_, _, stop, done := bootDaemon(t, append([]string{
			"-addr", "127.0.0.1:0", "-k", "4", "-util", "0.2", "-scheduler", "fifo", "-wal-dir", dir,
		}, tc.mode...))
		shutdownDaemon(t, stop, done)

		var segments []string
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				segments = append(segments, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(segments) != len(tc.logs) {
			t.Errorf("%s: files under -wal-dir = %v, want one segment in each of %d directories", tc.name, segments, len(tc.logs))
		}
		for sub, meta := range tc.logs {
			seg := filepath.Join(dir, sub, "wal-0000000000000000.log")
			raw, err := os.ReadFile(seg)
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
				continue
			}
			if !bytes.Contains(raw, []byte(meta)) {
				t.Errorf("%s: %s does not open with meta %s", tc.name, seg, meta)
			}
		}
	}
}
