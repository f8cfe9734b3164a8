package shard

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"

	"netupdate/internal/ctl"
	"netupdate/internal/netstate"
	"netupdate/internal/obs"
	"netupdate/internal/routing"
	"netupdate/internal/sched"
	"netupdate/internal/snapshot"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

// serveWorld serves w on an ephemeral loopback port until test cleanup
// and returns the address.
func serveWorld(t *testing.T, w *World) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = w.Server.Serve(l) }()
	t.Cleanup(func() { _ = w.Server.Close() })
	return l.Addr().String()
}

// TestOneWorldAcrossModes pins the genesis recipe: the unsharded world
// and the single world of a one-shard cluster hold the network a
// hand-written k / seed / seed+7 selector / full-fabric fill produces —
// the state every replay, follower and shard folds its log over. The two
// slots of a two-shard world are pinned by digest.
func TestOneWorldAcrossModes(t *testing.T) {
	for _, tc := range []struct {
		k    int
		util float64
	}{{4, 0.5}, {6, 0.6}} {
		const seed = 3
		ft, err := topology.NewFatTree(tc.k, topology.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		ref := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(seed+7))
		gen, err := trace.NewGenerator(seed, trace.YahooLike{}, ft.Hosts())
		if err != nil {
			t.Fatal(err)
		}
		placed, err := trace.FillBackground(ref, gen, tc.util, 0)
		if err != nil && !errors.Is(err, trace.ErrTargetUnreachable) {
			t.Fatal(err)
		}
		want := snapshot.Capture(ref)

		cfg := WorldConfig{K: tc.k, Util: tc.util, Scheduler: "fifo", Seed: seed, Shards: 1}
		plain, err := NewWorld(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = plain.Server.Close() })
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cl.Close() })

		for name, w := range map[string]*World{"unsharded": plain, "one-shard cluster": cl.Worlds[0]} {
			got, err := w.Server.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("k=%d util=%v: %s world differs from the hand-built genesis (%d vs %d flows)",
					tc.k, tc.util, name, len(got.Flows), len(want.Flows))
			}
			if w.BgFlows != len(placed) || w.BgUtil != ref.Utilization() || w.Restored || w.Recovery != nil {
				t.Errorf("k=%d: %s world reports %d flows at %v (restored %v, recovery %v), want %d at %v",
					tc.k, name, w.BgFlows, w.BgUtil, w.Restored, w.Recovery, len(placed), ref.Utilization())
			}
		}
		if plain.ID != 0 || cl.Worlds[0].ID != 1 {
			t.Errorf("world IDs = %d, %d, want 0 (no shard identity), 1", plain.ID, cl.Worlds[0].ID)
		}
	}

	// The slots of a two-shard world: core split, pod-restricted hosts,
	// fill seed Seed+slot-1 and the scaled target, pinned by a SHA-256 of
	// the JSON snapshot.
	for _, tc := range []struct {
		slot   int
		digest string
		flows  int
		util   float64
	}{
		{1, "23aeb62d0241cfe388f96c17851eb8d48e6f87a348792beace7fd643a708e75c", 237, 0.2501842105263158},
		{2, "6dde34db5ae7b1a3f996165994871acb4b834c194047b2b59be38815627432aa", 253, 0.2505263157894737},
	} {
		w, err := NewWorld(WorldConfig{K: 4, Util: 0.5, Scheduler: "fifo", Seed: 3, Shards: 2}, tc.slot)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Server.Close() })
		snap, err := w.Server.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != tc.digest {
			t.Errorf("slot %d of 2: snapshot digest %s, want %s", tc.slot, got, tc.digest)
		}
		if w.BgFlows != tc.flows || w.BgUtil != tc.util {
			t.Errorf("slot %d of 2: %d flows at %v, want %d at %v", tc.slot, w.BgFlows, w.BgUtil, tc.flows, tc.util)
		}
	}
}

// TestWorldConfigZeroValues is the compatibility guard for callers that
// predate the engine-only fields (bench/deploy.go): a cluster built from
// only the fields they set has no rule tables and no span stream, and
// each engine-only field is refused there rather than silently dropped.
func TestWorldConfigZeroValues(t *testing.T) {
	cfg := WorldConfig{
		K: 4, Util: 0.2, Scheduler: "fifo", Alpha: 4, Seed: 1,
		Watermark: ctl.DefaultHighWatermark, Shards: 2,
		WALDir: t.TempDir(), WALSync: "group", CheckpointEvery: -1,
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range cl.Worlds {
		if dp := w.net.DataPlane(); dp != nil {
			t.Errorf("shard %d: zero-value config attached a data plane", w.ID)
		}
		if w.Recovery == nil || w.Recovery.Recovered || w.BgFlows == 0 {
			t.Errorf("shard %d: fresh durable world reports recovery %+v, %d background flows", w.ID, w.Recovery, w.BgFlows)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	for name, set := range map[string]func(*WorldConfig){
		"Tables":   func(c *WorldConfig) { c.Tables = true },
		"SpanSink": func(c *WorldConfig) { c.SpanSink = obs.NilSink{} },
		"Follow":   func(c *WorldConfig) { c.Follow = "127.0.0.1:1" },
	} {
		bad := cfg
		set(&bad)
		if _, err := NewCluster(bad); !errors.Is(err, ErrConfig) {
			t.Errorf("%s in a cluster: err = %v, want ErrConfig", name, err)
		}
		if _, err := NewWorld(bad, 2); !errors.Is(err, ErrConfig) {
			t.Errorf("%s on a slot: err = %v, want ErrConfig", name, err)
		}
	}
	// Usage errors are typed the same way in every mode.
	bad := cfg
	bad.Scheduler = "bogus"
	var unknown *sched.UnknownSchedulerError
	if _, err := NewCluster(bad); !errors.Is(err, ErrConfig) || !errors.As(err, &unknown) {
		t.Errorf("unknown scheduler: err = %v, want ErrConfig wrapping UnknownSchedulerError", err)
	}
	bad = cfg
	bad.WALSync = "sometimes"
	if _, err := NewWorld(bad, 1); !errors.Is(err, ErrConfig) {
		t.Errorf("unknown sync policy: err = %v, want ErrConfig", err)
	}
	// The unsharded world takes them: tables attach, spans flow.
	ring := obs.NewRingSink(64)
	w, err := NewWorld(WorldConfig{K: 4, Scheduler: "fifo", Seed: 1, Tables: true, TableCap: 128, SpanSink: ring}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.net.DataPlane() == nil {
		t.Error("Tables: no data plane attached")
	}
	if _, err := w.Server.Submit(intraPodSpec(w.FT, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Server.Close(); err != nil { // drains the async span stage
		t.Fatal(err)
	}
	if len(ring.Last(0)) == 0 {
		t.Error("SpanSink: no stage records reached the sink")
	}
}

// TestPromotedFollowerKeepsMaxFollowers: MaxFollowers reaches a world
// booted as a follower, so once promoted it serves as many replicas as
// the operator asked for, not the library default of one.
func TestPromotedFollowerKeepsMaxFollowers(t *testing.T) {
	cfg := WorldConfig{K: 4, Util: 0.2, Scheduler: "fifo", Seed: 1, Watermark: 1024}
	boot := func(follow string) (*World, error) {
		c := cfg
		c.WALDir, c.Follow, c.MaxFollowers = t.TempDir(), follow, 2
		return NewWorld(c, 0)
	}
	leader, err := boot("")
	if err != nil {
		t.Fatal(err)
	}
	standby, err := boot(serveWorld(t, leader))
	if err != nil {
		t.Fatal(err)
	}
	standbyAddr := serveWorld(t, standby)
	c, err := ctl.DialBinary(standbyAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if info, err := c.Promote(); err != nil || info.Role != "leader" {
		t.Fatalf("promote: %+v, %v", info, err)
	}
	for i := 1; i <= 2; i++ {
		f, err := boot(standbyAddr)
		if err != nil {
			t.Fatalf("follower %d of the promoted leader refused: %v", i, err)
		}
		t.Cleanup(func() { _ = f.Server.Close() })
	}
	if _, err := boot(standbyAddr); err == nil {
		t.Error("third follower accepted, want the cap of 2 enforced")
	}
}
