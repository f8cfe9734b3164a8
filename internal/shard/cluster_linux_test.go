package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestNewClusterBuildsShardsAtOnce: every shard's checkpoint is a FIFO,
// so opening its log blocks until a writer comes. All four shards must
// be waiting on theirs together — a cluster built one shard after
// another only ever has shard 1 waiting. Closing the writers then gives
// every shard an empty checkpoint, which fails it: the error is shard
// 1's, and nothing NewCluster started is left running.
func TestNewClusterBuildsShardsAtOnce(t *testing.T) {
	cfg := WorldConfig{K: 4, Util: 0.2, Scheduler: "fifo", Seed: 1, Shards: 4, WALDir: t.TempDir()}
	fifos := make([]string, cfg.Shards)
	for i := range fifos {
		dir := filepath.Join(cfg.WALDir, fmt.Sprintf("shard-%d", i+1))
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		fifos[i] = filepath.Join(dir, "checkpoint.json")
		if err := syscall.Mkfifo(fifos[i], 0o600); err != nil {
			t.Fatal(err)
		}
	}

	base := runtime.NumGoroutine()
	type result struct {
		cl  *Cluster
		err error
	}
	got := make(chan result, 1)
	go func() {
		cl, err := NewCluster(cfg)
		got <- result{cl, err}
	}()

	// A FIFO's write end opens without blocking only while a reader
	// waits on it.
	writers, waiting := make([]int, len(fifos)), 0
	for i := range writers {
		writers[i] = -1
	}
	for deadline := time.Now().Add(2 * time.Second); waiting < len(fifos) && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for i, path := range fifos {
			if writers[i] < 0 {
				if fd, err := syscall.Open(path, syscall.O_WRONLY|syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0); err == nil {
					writers[i], waiting = fd, waiting+1
				}
			}
		}
	}
	var idle []int
	for i, fd := range writers {
		if fd < 0 {
			idle = append(idle, i+1)
			continue
		}
		if err := syscall.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	if len(idle) > 0 {
		t.Errorf("shards %v never waited on their checkpoint: the shards were not built at once", idle)
	}

	var r result
	select {
	case r = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("NewCluster did not return after every checkpoint writer closed")
	}
	if r.err == nil {
		_ = r.cl.Close()
		t.Fatal("NewCluster over empty checkpoints succeeded")
	}
	if !strings.HasPrefix(r.err.Error(), "shard 1: ") {
		t.Errorf("error %q, want shard 1's (the lowest-numbered failure)", r.err)
	}
	goroutinesSettle(t, base)
}
