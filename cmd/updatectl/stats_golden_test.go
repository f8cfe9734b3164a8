package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/shard"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens")

// TestStatsGolden pins what clients see of a deterministic daemon: the
// OpStats JSON answer, `updatectl stats`, `updatectl wal info -addr` and
// `updatectl wal info <dir>`, for an unsharded engine and for shard 1 of
// 2. Every number a fold of the admitted history produces is compared
// byte for byte; only wall-clock readings (latency percentiles, fsync
// percentiles, recovery milliseconds, the checkpoint's size, which
// carries the probes' wall time) and the temporary directory are masked.
func TestStatsGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		slot int
	}{{"plain", 0}, {"shard1of2", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			got := statsTranscript(t, tc.slot)
			path := filepath.Join("testdata", "stats_"+tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got != string(want) {
				t.Errorf("transcript differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
			}
		})
	}
}

// Wall-clock readings, masked in the transcripts.
var (
	wallJSON    = regexp.MustCompile(`,"(latency_[a-z0-9_]+|wal_fsync_p[0-9]+_ns|wal_recovery_ms)":[0-9]+`)
	wallRecov   = regexp.MustCompile(`replayed in [0-9]+ ms`)
	wallPctl    = regexp.MustCompile(`p50 [^,]+, p99 [^,\n]+`)
	wallLatLine = regexp.MustCompile(`(?m)^latency .*\n`)
	wallCkpt    = regexp.MustCompile(`state [0-9]+ bytes`)
)

// statsTranscript drives one world through submissions, faults, an
// install timeout and a forced checkpoint — each step started only once
// the previous one has run dry, so the schedule is a pure function of
// the inputs — and renders what each client surface reports.
func statsTranscript(t *testing.T, slot int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := shard.WorldConfig{K: 4, Util: 0.3, Scheduler: "p-lmtf", Alpha: 2, Seed: 5, Watermark: 512,
		WALDir: dir, CheckpointEvery: 8}
	if slot > 0 {
		cfg.Shards = 2
	}
	w, err := shard.NewWorld(cfg, slot)
	if err != nil {
		t.Fatal(err)
	}
	srv := w.Server
	closed := false
	defer func() {
		if !closed {
			_ = srv.Close()
		}
	}()
	ft := w.FT

	quiesce := func() {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			st, err := srv.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.EventsQueued == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("queue not drained: %+v", st)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	// Events stay inside pods 0 and 1, which shard 1 of 2 owns.
	batch := func(round int) {
		t.Helper()
		var specs []ctl.EventSpec
		for i := 0; i < 4; i++ {
			pod := (round + i) % 2
			src := ft.Host(pod, i%2, 0)
			dst := ft.Host(1-pod, (i+1)%2, 1)
			specs = append(specs, ctl.EventSpec{Kind: fmt.Sprintf("golden-%d", round), Flows: []ctl.FlowSpec{
				{Src: int(src), Dst: int(dst), DemandBps: int64(40+10*i) * 1e6, SizeBytes: 1e6},
				{Src: int(dst), Dst: int(src), DemandBps: 25e6, SizeBytes: 5e5},
			}})
		}
		verdicts, _, err := srv.SubmitBatch(specs)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range verdicts {
			if !v.OK {
				t.Fatalf("event %d refused: %s", i, v.Error)
			}
		}
		quiesce()
	}
	fault := func(spec ctl.FaultSpec) {
		t.Helper()
		if _, err := srv.Fault(spec); err != nil {
			t.Fatal(err)
		}
		quiesce()
	}

	core, ok := ft.Graph().LinkBetween(ft.Cores()[0], ft.Agg(0, 0))
	if !ok {
		t.Fatal("no core->agg link")
	}
	batch(0)
	batch(1)
	fault(ctl.FaultSpec{Action: "link-down", Link: int(core)})
	fault(ctl.FaultSpec{Action: "install-timeout", Times: 2})
	batch(2)
	fault(ctl.FaultSpec{Action: "link-up", Link: int(core)})
	if err := srv.ForceCheckpoint(); err != nil {
		t.Fatal(err)
	}
	batch(3)

	var out strings.Builder
	resp := srv.Do(ctl.Request{Op: ctl.OpStats})
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "== OpStats JSON ==\n%s\n", wallJSON.ReplaceAll(raw, nil))

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	addr := l.Addr().String()
	cli := func(args ...string) string {
		t.Helper()
		var buf bytes.Buffer
		if code := run(args, &buf); code != 0 {
			t.Fatalf("updatectl %v: exit %d\n%s", args, code, buf.String())
		}
		s := wallLatLine.ReplaceAllString(buf.String(), "")
		s = wallRecov.ReplaceAllString(s, "replayed in (wall) ms")
		s = wallPctl.ReplaceAllString(s, "p50 (wall), p99 (wall)")
		s = wallCkpt.ReplaceAllString(s, "state (wall) bytes")
		return strings.ReplaceAll(s, dir, "<dir>")
	}
	fmt.Fprintf(&out, "== updatectl stats ==\n%s", cli("-addr", addr, "stats"))
	fmt.Fprintf(&out, "== updatectl wal info -addr ==\n%s", cli("wal", "info", "-addr", addr))
	closed = true
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	walDir := dir
	if slot > 0 {
		walDir = filepath.Join(dir, fmt.Sprintf("shard-%d", slot))
	}
	fmt.Fprintf(&out, "== updatectl wal info <dir> ==\n%s", cli("wal", "info", walDir))
	fmt.Fprintf(&out, "== updatectl wal verify <dir> ==\n%s", cli("wal", "verify", walDir))
	return out.String()
}
