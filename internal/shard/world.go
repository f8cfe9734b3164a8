package shard

import (
	"cmp"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/netstate"
	"netupdate/internal/obs"
	"netupdate/internal/rules"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
	"netupdate/internal/wal"
)

// WorldConfig describes one deterministic world: a k-ary fat-tree under
// background load, scheduled by one engine (NewWorld with slot 0) or
// partitioned over Shards engines (NewCluster, or NewWorld with a slot
// in 1..Shards). The zero value of every optional field is "off".
type WorldConfig struct {
	K         int
	Util      float64
	Scheduler string
	Alpha     int
	Seed      int64
	Watermark int
	Shards    int
	// CrossPoolFrac is the fraction of each core link reserved for
	// cross-shard traffic; <= 0 selects DefaultCrossPoolFrac. Ignored
	// (forced to 0) for a single shard, which has no cross traffic.
	CrossPoolFrac float64
	// WALDir, when set, makes admission durable: the unsharded world logs
	// in WALDir itself, shard <id> in WALDir/shard-<id>. WALSync is a
	// wal.ParseSyncPolicy name (empty = "group"), CheckpointEvery as in
	// ctl.WALConfig, MaxFollowers as in ctl.ReplicationConfig.
	WALDir          string
	WALSync         string
	CheckpointEvery int
	MaxFollowers    int

	// The rest is for the unsharded world only (see Validate).

	// Tables attaches two-phase per-switch rule tables holding TableCap
	// rules each (0 = unlimited).
	Tables   bool
	TableCap int
	// SpanSink receives the engine's stage latency spans (ctl.Config.SpanSink).
	SpanSink obs.Sink
	// Follow boots the world as a warm follower of the leader at this ctl
	// address (requires WALDir); PromoteAfter as in ctl.FollowerConfig.
	Follow       string
	PromoteAfter time.Duration
}

// ErrConfig marks a configuration only its author can fix — an unknown
// scheduler or sync policy, an option the requested mode does not take —
// as opposed to a world that failed to come up.
var ErrConfig = errors.New("shard: invalid configuration")

// Validate checks everything about building slot id of c that can be
// checked without building anything. Slot 0 is the unsharded world;
// NewWorld and NewCluster validate for themselves.
func (c WorldConfig) Validate(id int) error {
	sharded := id != 0 || c.Shards > 1
	if sharded {
		if c.K < 4 {
			return fmt.Errorf("shard: fat-tree arity %d too small", c.K)
		}
		if id < 1 || id > c.Shards {
			return fmt.Errorf("shard: slot %d outside 1..%d", id, c.Shards)
		}
		// One engine of several has no leader to follow as a unit, no
		// single span stream, and no rule tables sized for a core slice.
		for _, opt := range []struct {
			name string
			set  bool
		}{
			{"Follow", c.Follow != ""},
			{"SpanSink", c.SpanSink != nil},
			{"Tables", c.Tables},
		} {
			if opt.set {
				return fmt.Errorf("%w: %s is not supported in sharded mode", ErrConfig, opt.name)
			}
		}
	}
	if c.Follow != "" && c.WALDir == "" {
		return fmt.Errorf("%w: Follow requires WALDir (the follower persists the replicated log)", ErrConfig)
	}
	if _, err := sched.New(c.Scheduler); err != nil {
		// The typed error lists every registered scheduler.
		return fmt.Errorf("%w: %w", ErrConfig, err)
	}
	if _, err := wal.ParseSyncPolicy(cmp.Or(c.WALSync, "group")); err != nil {
		return fmt.Errorf("%w: %w", ErrConfig, err)
	}
	return nil
}

// World is one engine plus the topology it schedules on, and what
// standing it up found and did.
type World struct {
	ID     int   // shard slot, 0 for the unsharded world
	Pods   []int // pods this world owns, ascending
	Server *ctl.Server
	FT     *topology.FatTree
	// Recovery is what the WAL restored (nil without a WAL). Restored
	// reports that a checkpoint supplied the placed flows, so the
	// background fill was skipped; otherwise the fill placed BgFlows flows
	// and reached utilization BgUtil.
	Recovery *ctl.RecoveryInfo
	Restored bool
	BgFlows  int
	BgUtil   float64

	net *netstate.Network
}

// Cluster is a set of shard worlds over one partition, plus the
// cross-shard admission ledgers sized from the reserved core pool.
// Ref is the full-capacity reference fat-tree the partition was built
// on — the topology a fronting gateway resolves fault specs against.
type Cluster struct {
	Part   *Partition
	Ref    *topology.FatTree
	Worlds []*World
	Cross  *CrossAdmitter
}

// NewCluster builds cfg.Shards per-shard worlds. Every world holds a
// full replica of the fat-tree (same node and link IDs as an unsharded
// run, so specs and faults need no translation), but:
//
//   - core-layer links carry capacity C·(1-frac)/N — the shard's slice
//     of the shared core, with frac of C per shard held back in the
//     gateway's cross-pool ledgers;
//   - background fill draws only from the shard's own pods' hosts, at a
//     proportionally scaled utilization target, so each world carries
//     its share of the cluster load and nothing else.
//
// With Shards == 1 the single world's network is byte-for-byte the
// unsharded one (full core capacity, full fill).
//
// The shards are built at once, each through NewWorld, and Worlds holds
// them in slot order: with a core per shard a cluster stands up in its
// slowest shard's time, not the sum of them. If any shard fails, every
// shard still finishes building, the ones that built are closed, and
// the error is the lowest-numbered failure, prefixed "shard <s>: ".
func NewCluster(cfg WorldConfig) (*Cluster, error) {
	if err := cfg.Validate(1); err != nil {
		return nil, err
	}
	ref, err := topology.NewFatTree(cfg.K, topology.Gbps)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	part, err := NewPartition(ref, cfg.Shards)
	if err != nil {
		return nil, err
	}
	frac, err := ResolveCrossPoolFrac(cfg.Shards, cfg.CrossPoolFrac)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{Part: part, Ref: ref, Cross: CrossPoolFor(ref, part, frac), Worlds: make([]*World, cfg.Shards)}
	slots, errs := make([]int, cfg.Shards), make([]error, cfg.Shards)
	for i := range slots {
		slots[i] = i
	}
	atOnce(slots, func(i int) { cl.Worlds[i], errs[i] = NewWorld(cfg, i+1) })
	if i := slices.IndexFunc(errs, func(err error) bool { return err != nil }); i >= 0 {
		for _, w := range cl.Worlds {
			if w != nil {
				_ = w.Server.Close()
			}
		}
		return nil, fmt.Errorf("shard %d: %w", i+1, errs[i])
	}
	return cl, nil
}

// ResolveCrossPoolFrac applies the cross-pool defaults: <= 0 selects
// DefaultCrossPoolFrac, >= 1 is rejected (no shard capacity left), and
// a single shard has no cross traffic so the pool is forced empty.
func ResolveCrossPoolFrac(shards int, frac float64) (float64, error) {
	if frac <= 0 {
		frac = DefaultCrossPoolFrac
	}
	if frac >= 1 {
		return 0, fmt.Errorf("shard: cross pool fraction %v leaves no shard capacity", frac)
	}
	if shards == 1 {
		frac = 0
	}
	return frac, nil
}

// CrossPoolFor sizes the cross-shard admission ledgers for a reference
// topology: frac of the total shared-core capacity, split evenly into
// one ledger per shard.
func CrossPoolFor(ref *topology.FatTree, part *Partition, frac float64) *CrossAdmitter {
	var coreCap topology.Bandwidth
	g := ref.Graph()
	for id := 0; id < g.NumLinks(); id++ {
		l := g.Link(topology.LinkID(id))
		if part.LinkOwner(l.From, l.To) == 0 {
			coreCap += l.Capacity
		}
	}
	return NewCrossAdmitter(part.N(), topology.Bandwidth(float64(coreCap)*frac)/topology.Bandwidth(part.N()))
}

// NewWorld is the one recipe that turns a configuration into a running
// engine. Slot 0 is the unsharded world — the whole fabric, no shard
// identity, the log in cfg.WALDir itself. A slot in 1..cfg.Shards is
// that shard of the partition, exactly as NewCluster builds it — core
// capacity split, pod-restricted fill, strided event IDs, the log bound
// to the slot under cfg.WALDir/shard-<id> — so a gateway fronting N such
// engines in their own processes behaves like the in-process cluster.
//
// Every process that replays, follows or fronts a world rebuilds it
// through here, and state is a fold of one log over one genesis, so the
// steps and their order are the contract:
//
//	sim.Genesis.Fabric (fat-tree, empty network, planner) → core split
//	(Shards > 1) → rule tables → open the WAL → follower handshake →
//	sim.World.Fill, unless a checkpoint restores → ctl.New or
//	ctl.NewFollower
//
// The log opens and the follower handshakes before the fill because
// both can put a checkpoint in the log, and a checkpoint carries its own
// placed flows: filling first would place them twice.
func NewWorld(cfg WorldConfig, id int) (*World, error) {
	if err := cfg.Validate(id); err != nil {
		return nil, err
	}
	scheduler, err := sched.New(cfg.Scheduler, sched.WithAlpha(cfg.Alpha), sched.WithSeed(cfg.Seed))
	if err != nil {
		return nil, err
	}
	gw, err := sim.Genesis{K: cfg.K, Seed: cfg.Seed}.Fabric()
	if err != nil {
		return nil, err
	}
	ft, net := gw.FatTree, gw.Net
	// The unsharded world is slot 1 of a one-shard partition: every pod,
	// every host, the full core.
	n, slot := max(cfg.Shards, 1), max(id, 1)
	part, err := NewPartition(ft, n)
	if err != nil {
		return nil, err
	}
	g := ft.Graph()
	if n > 1 {
		frac, err := ResolveCrossPoolFrac(n, cfg.CrossPoolFrac)
		if err != nil {
			return nil, err
		}
		// This world's core slice: equal share of what the cross pool
		// leaves behind.
		for lid := 0; lid < g.NumLinks(); lid++ {
			l := g.Link(topology.LinkID(lid))
			if part.LinkOwner(l.From, l.To) != 0 {
				continue
			}
			slice := topology.Bandwidth(float64(l.Capacity)*(1-frac)) / topology.Bandwidth(n)
			if err := g.SetCapacity(topology.LinkID(lid), slice); err != nil {
				return nil, fmt.Errorf("core split: %w", err)
			}
		}
	}
	if cfg.Tables {
		if err := net.AttachDataPlane(rules.NewManager(g, cfg.TableCap)); err != nil {
			return nil, fmt.Errorf("rule tables: %w", err)
		}
	}

	var walLog *wal.Log
	var walCfg *ctl.WALConfig
	var follow ctl.FollowerConfig
	var sess *ctl.FollowerSession
	if cfg.WALDir != "" {
		// The meta is compared whole against the log's, so each mode keeps
		// writing what it always wrote: the unsharded daemon its -tables
		// value (-1 = off), a shard its slot and no table capacity.
		dir := cfg.WALDir
		meta := &wal.Meta{
			Format:    wal.FormatVersion,
			Scheduler: scheduler.Name(),
			Seed:      cfg.Seed,
			K:         cfg.K,
			Util:      cfg.Util,
			Watermark: cfg.Watermark,
		}
		switch {
		case id != 0:
			dir = filepath.Join(dir, fmt.Sprintf("shard-%d", id))
			meta.Shard, meta.Shards = id, cfg.Shards
		case cfg.Tables:
			meta.Tables = cfg.TableCap
		default:
			meta.Tables = -1
		}
		policy, _ := wal.ParseSyncPolicy(cmp.Or(cfg.WALSync, "group")) // Validate parsed it
		if walLog, err = wal.Open(dir, wal.WithSync(policy)); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		walCfg = &ctl.WALConfig{Log: walLog, Meta: meta, CheckpointEvery: cfg.CheckpointEvery}
		if cfg.Follow != "" {
			// If the leader ships a bootstrap checkpoint it is installed
			// into the empty log now, and restores below like a local one.
			follow = ctl.FollowerConfig{
				Log: walLog, Meta: meta, CheckpointEvery: cfg.CheckpointEvery,
				LeaderAddr: cfg.Follow, PromoteAfter: cfg.PromoteAfter,
			}
			if sess, err = ctl.FollowerBootstrap(follow); err != nil {
				return nil, fmt.Errorf("follow %s: %w", cfg.Follow, err)
			}
		}
	}

	w := &World{ID: id, Pods: part.PodsOf(slot), FT: ft, net: net}
	w.Restored = walLog != nil && walLog.Checkpoint() != nil
	if !w.Restored {
		var hosts []topology.NodeID
		for _, h := range ft.Hosts() {
			if part.OfPod(ft.PodOf(h)) == slot {
				hosts = append(hosts, h)
			}
		}
		// Fill only this world's pods, toward its proportional share of
		// the cluster-wide utilization target; with a fraction of the
		// hosts the target may be unreachable, which is fine.
		target := cfg.Util
		if n > 1 {
			target = cfg.Util * float64(len(w.Pods)) / float64(ft.NumPods())
		}
		if err := gw.Fill(hosts, cfg.Seed+int64(slot-1), target); err != nil {
			return nil, fmt.Errorf("background: %w", err)
		}
		w.BgFlows, w.BgUtil = len(gw.Background), net.Utilization()
	}

	// What the engine takes beyond planner, scheduler and log, in either role.
	common := func(c *ctl.Config) {
		c.Watermark = cfg.Watermark
		c.SpanSink = cfg.SpanSink
		c.Replication.MaxFollowers = cfg.MaxFollowers
		if id != 0 {
			c.Shard = ctl.ShardIdentity{ID: id, Count: cfg.Shards}
		}
	}
	if sess != nil {
		w.Server, w.Recovery, err = ctl.NewFollower(gw.Planner, scheduler, sim.Config{}, follow, sess, common)
	} else {
		c := ctl.Config{Planner: gw.Planner, Scheduler: scheduler, WAL: walCfg}
		common(&c)
		w.Server, w.Recovery, err = ctl.New(c)
	}
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	return w, nil
}

// Backends returns the worlds' engines as the unified Backend surface,
// index s-1 holding shard s.
func (c *Cluster) Backends() []ctl.Backend {
	out := make([]ctl.Backend, len(c.Worlds))
	for i, w := range c.Worlds {
		out[i] = w.Server
	}
	return out
}

// Close shuts every world down, returning the first error.
func (c *Cluster) Close() error {
	var firstErr error
	for _, w := range c.Worlds {
		if err := w.Server.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
