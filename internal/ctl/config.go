package ctl

import (
	"fmt"

	"netupdate/internal/core"
	"netupdate/internal/obs"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
)

// ShardIdentity places a server in a sharded deployment: shard ID (1-
// based) of Count engines. Event IDs stride by Count starting at ID, so
// every shard mints from a disjoint ID lattice, submit verdicts carry
// the shard, and the WAL meta records the placement. The zero value is
// the unsharded default.
type ShardIdentity struct {
	ID    int
	Count int
}

// Config collects everything a controller needs at construction: one
// struct, one constructor, optional durability. The zero values of the
// optional fields (Watermark, SpanSink, Shard, WAL, Replication) select
// the unsharded, memory-only defaults.
type Config struct {
	// Planner owns the prepared network; Scheduler orders events; Sim is
	// the virtual timing model used to compute per-event metrics. Planner
	// and Scheduler are required.
	Planner   *core.Planner
	Scheduler sched.Scheduler
	Sim       sim.Config

	// Watermark bounds the intake queue: submissions arriving when the
	// update queue holds this many events or more are answered with a
	// typed overload response carrying the queue depth and a retry-after
	// hint. <= 0 keeps DefaultHighWatermark.
	Watermark int

	// SpanSink, when set, receives stage-level latency span records
	// (obs.KindStage), e.g. an obs.JSONLSink over a span file. The server
	// wraps the sink in a bounded async stage so span emission never
	// blocks the state loop; overflow drops records and counts them in
	// obs_spans_dropped_total. The sink receives records from a
	// background goroutine and is flushed and released by Server.Close.
	SpanSink obs.Sink

	// Shard places this server in a sharded deployment. ID must lie in
	// 1..Count unless both are zero.
	Shard ShardIdentity

	// WAL, when set, attaches a durable log. Any recorded history is
	// recovered before the state loop starts — the checkpoint (if any) is
	// thawed into the planner's network and engine, then the log suffix
	// is folded through the same admit / inject functions live requests
	// take — and from then on every admitted mutation is appended before
	// its ack. When the log holds no checkpoint, the planner's network
	// must be in the genesis state the original run started from (same
	// topology, same background fill): replay folds the full log against
	// it.
	WAL *WALConfig

	// Replication tunes the leader side of WAL replication. Replication
	// itself needs no opt-in: every WAL-backed server accepts follower
	// sessions up to MaxFollowers. Ignored without a WAL.
	Replication ReplicationConfig

	// doneWindow shrinks the done window for in-package tests, which need
	// evictions after a few dozen events; 0 — all any caller outside the
	// package can say — is the doneWindow constant.
	doneWindow int
}

func (c *Config) validate() error {
	if c.Planner == nil || c.Scheduler == nil {
		return fmt.Errorf("ctl: Config needs Planner and Scheduler")
	}
	if c.WAL != nil && c.WAL.Log == nil {
		return fmt.Errorf("ctl: WALConfig.Log is nil")
	}
	if sh := c.Shard; sh != (ShardIdentity{}) && (sh.ID < 1 || sh.ID > sh.Count) {
		return fmt.Errorf("ctl: shard %d outside 1..%d", sh.ID, sh.Count)
	}
	return nil
}

// ServerOption adjusts the Config that the positional NewFollower
// constructor builds from its arguments (watermark, span sink,
// replication, shard identity — whatever New takes in its Config).
type ServerOption func(*Config)

// New builds and starts a controller from one Config. The returned
// RecoveryInfo is non-nil only when cfg.WAL was set and describes what
// was replayed.
func New(cfg Config) (*Server, *RecoveryInfo, error) {
	s, info, err := build(cfg)
	if err != nil {
		return nil, nil, err
	}
	s.start()
	return s, info, nil
}

// build validates cfg and assembles a server whose state loop has not
// started, recovering the WAL (if any) while the engine is still
// single-threaded.
func build(cfg Config) (*Server, *RecoveryInfo, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	s := newServer(cfg)
	if cfg.WAL == nil {
		return s, nil, nil
	}
	info, err := s.initWAL(*cfg.WAL, cfg.Replication)
	if err != nil {
		return nil, nil, err
	}
	return s, info, nil
}
