package shard

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"netupdate/internal/ctl"
)

// fillLogs runs cfg's cluster once to leave its logs in cfg.WALDir: each
// of batches is a gateway_mix-shaped submit-batch request, waited on
// until every accepted event is done, and every shard checkpoints after
// the first. It returns how many events the cluster accepted.
func fillLogs(tb testing.TB, cfg WorldConfig, batches ...int) int {
	tb.Helper()
	cl, err := NewCluster(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer cl.Close()
	gw, err := NewGateway(cl.Part, cl.Ref.Graph(), cl.Cross, cl.Backends())
	if err != nil {
		tb.Fatal(err)
	}
	defer gw.Close()
	rng := rand.New(rand.NewSource(11))
	accepted := 0
	for b, n := range batches {
		resp := gw.Handle(ctl.Request{Op: ctl.OpSubmitBatch, Events: mixEvents(cl.Ref, rng, n)}, time.Now().UnixNano())
		if !resp.OK {
			tb.Fatalf("batch %d: %s", b+1, resp.Error)
		}
		for _, v := range resp.Verdicts {
			if v.OK {
				accepted++
			}
		}
		waitDone(tb, gw, accepted)
		if b == 0 {
			for _, w := range cl.Worlds {
				if err := w.Server.ForceCheckpoint(); err != nil {
					tb.Fatalf("shard %d checkpoint: %v", w.ID, err)
				}
			}
		}
	}
	return accepted
}

// goroutinesSettle waits for the goroutine count to fall back to base:
// whatever a failed stand-up started must have stopped.
func goroutinesSettle(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines, want at most %d: a shard was left running", runtime.NumGoroutine(), base)
			return
		}
	}
}

// TestClusterRecoversLikeOneShardAtATime: shards recovered at once by
// NewCluster hold what each holds when recovered alone through
// NewWorld — a checkpoint restore plus a replay per shard, over logs a
// gateway_mix-shaped run left.
func TestClusterRecoversLikeOneShardAtATime(t *testing.T) {
	cfg := WorldConfig{K: 8, Util: 0.3, Scheduler: "p-lmtf", Alpha: 4, Seed: 1, Shards: 4,
		Watermark: ctl.DefaultHighWatermark, WALDir: t.TempDir(), WALSync: "group"}
	accepted := fillLogs(t, cfg, 300, 300)

	type state struct {
		EventsDone, FlowsPlaced int
		VirtualClock, AvgECT    time.Duration
		TotalCostBps            int64
	}
	stateOf := func(w *World) state {
		st, err := w.Server.Stats()
		if err != nil {
			t.Fatalf("shard %d stats: %v", w.ID, err)
		}
		return state{st.EventsDone, st.FlowsPlaced, st.VirtualClock, st.AvgECT, st.TotalCostBps}
	}

	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	together, done := make([]state, cfg.Shards), 0
	for i, w := range cl.Worlds {
		if w.ID != i+1 || w.Recovery == nil || !w.Restored {
			t.Errorf("Worlds[%d] is shard %d (recovery %+v, restored %v), want shard %d restored from its checkpoint", i, w.ID, w.Recovery, w.Restored, i+1)
		}
		together[i] = stateOf(w)
		done += together[i].EventsDone
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if done != accepted {
		t.Errorf("recovered cluster has %d events done, want the %d accepted", done, accepted)
	}

	for s := 1; s <= cfg.Shards; s++ {
		w, err := NewWorld(cfg, s)
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		alone := stateOf(w)
		if err := w.Server.Close(); err != nil {
			t.Fatal(err)
		}
		if alone != together[s-1] {
			t.Errorf("shard %d recovered alone holds %+v, in the cluster %+v", s, alone, together[s-1])
		}
	}
}

// TestNewClusterFailureClosesBuiltShards: a shard whose log directory
// is a regular file fails; the lowest-numbered failure is reported, the
// shards that did build are closed (nothing they started keeps running
// and their logs reopen), and the repaired cluster stands up.
func TestNewClusterFailureClosesBuiltShards(t *testing.T) {
	cfg := WorldConfig{K: 4, Util: 0.2, Scheduler: "p-lmtf", Alpha: 4, Seed: 1, Watermark: 1024, Shards: 4,
		WALDir: t.TempDir()}
	// breakSlots puts a regular file where each listed shard's log
	// directory goes, and removes the files it put anywhere else.
	breakSlots := func(broken ...int) {
		for s := 1; s <= cfg.Shards; s++ {
			path := filepath.Join(cfg.WALDir, fmt.Sprintf("shard-%d", s))
			if fi, err := os.Stat(path); err == nil && !fi.IsDir() || slices.Contains(broken, s) {
				if err := os.RemoveAll(path); err != nil {
					t.Fatal(err)
				}
			}
			if slices.Contains(broken, s) {
				if err := os.WriteFile(path, nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, tc := range []struct {
		broken []int
		want   string
	}{
		{[]int{3}, "shard 3: "},
		{[]int{2, 4}, "shard 2: "},
	} {
		breakSlots(tc.broken...)
		base := runtime.NumGoroutine()
		cl, err := NewCluster(cfg)
		if err == nil {
			_ = cl.Close()
			t.Fatalf("shards %v broken: NewCluster succeeded", tc.broken)
		}
		if !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("shards %v broken: error %q, want it prefixed %q", tc.broken, err, tc.want)
		}
		goroutinesSettle(t, base)
	}

	breakSlots()
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("repaired: %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkClusterRecover is a cluster standing up from its logs, as
// the benchmark's gateway_mix recovery does: four group-commit WAL
// shards of a k = 8 fabric at util 0.3 under p-lmtf, each restoring the
// checkpoint taken after a first 3 000-event batch and replaying two
// more, until every shard answers Stats. slot-1 stands shard 1 up alone
// through NewWorld: the cluster costs about its slowest shard plus what
// the shards contend for, not the sum of four.
func BenchmarkClusterRecover(b *testing.B) {
	cfg := WorldConfig{K: 8, Util: 0.3, Scheduler: "p-lmtf", Alpha: 4, Seed: 1, Shards: 4,
		Watermark: ctl.DefaultHighWatermark, WALDir: b.TempDir(), WALSync: "group"}
	fillLogs(b, cfg, 3000, 3000, 3000)
	for _, c := range []struct {
		name string
		up   func() ([]*World, error)
	}{
		{"cluster", func() ([]*World, error) {
			cl, err := NewCluster(cfg)
			if err != nil {
				return nil, err
			}
			return cl.Worlds, nil
		}},
		{"slot-1", func() ([]*World, error) {
			w, err := NewWorld(cfg, 1)
			return []*World{w}, err
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				worlds, err := c.up()
				if err != nil {
					b.Fatal(err)
				}
				for _, w := range worlds {
					if resp := w.Server.Do(ctl.Request{Op: ctl.OpStats}); !resp.OK {
						b.Fatalf("shard %d stats: %s", w.ID, resp.Error)
					}
				}
				b.StopTimer()
				for _, w := range worlds {
					_ = w.Server.Close()
				}
				runtime.GC() // a restarted daemon starts with an empty heap
				b.StartTimer()
			}
		})
	}
}
