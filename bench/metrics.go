package main

// metricDef names one reported metric. The two tables below are the
// benchmark's contract: BENCHMARK.json lists exactly these (the smoke
// test compares them), an untraced pass must yield every end-to-end
// metric, and a traced pass reports every per-layer metric (0 where a
// workload does not execute the layer).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated regression, share of the parent's median
}

// endToEnd are the numbers a user of the control plane would see.
// Timings get the widest bound the contract allows: this 2-core sandbox
// swings a core's speed by up to 2x for seconds to minutes at a time
// (README.md, "Noise"), and a tighter bound would fail identical code.
// live_heap_mb repeats for a seed but spreads 14 % across seeds on
// paper_plan (flows still in flight). The deterministic ECT and the
// counted share are held tighter.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"drain_events_per_s", "1/s", "higher", 0.25},
	{"drain_avg_ect_s", "s", "lower", 0.1},
	{"ack_p50_ms", "ms", "lower", 0.25},
	{"done_p50_ms", "ms", "lower", 0.25},
	{"stats_p50_ms", "ms", "lower", 0.25},
	{"in_limit_share", "share", "higher", 0.15},
	{"live_heap_mb", "MB", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
}

// perLayer attributes time and work to the repo's packages. Kinds: (A)
// direct timed calls from layers.go, (B) counter deltas across a phase,
// (C) spans and decorators of the traced pass.
var perLayer = []metricDef{
	// topology / trace / routing (A) -> setup_s
	{"topology.build_ms", "ms", "lower", 0},
	{"trace.fill_ms", "ms", "lower", 0},
	{"trace.bg_flows", "count", "lower", 0},
	{"routing.paths_cold_us", "us", "lower", 0},
	{"routing.paths_cached_ns", "ns", "lower", 0},
	// netstate (A) -> paper_plan drain/done/recover
	{"netstate.fork_ms", "ms", "lower", 0},
	{"netstate.fork_allocs", "count", "lower", 0},
	// migration (A,B) -> paper_plan drain/done; cost is the quality guard
	{"migration.admit_us", "us", "lower", 0},
	{"migration.admit_allocs", "count", "lower", 0},
	{"migration.cost_mbps", "Mbps", "lower", 0},
	{"migration.flows_failed_share", "share", "lower", 0},
	// core (A,B)
	{"core.probe_us", "us", "lower", 0},
	{"core.probe_allocs", "count", "lower", 0},
	{"core.execute_us", "us", "lower", 0},
	{"core.execute_small_us", "us", "lower", 0},
	{"core.probe_hit_rate", "share", "higher", 0},
	{"core.probe_cold", "count", "lower", 0},
	{"core.probe_incremental", "count", "lower", 0},
	// sched (A,B,C)
	{"sched.pick_us", "us", "lower", 0},
	{"sched.pick_p50_ms", "ms", "lower", 0},
	{"sched.rounds", "count", "lower", 0},
	{"sched.events_per_round", "count", "higher", 0},
	{"sched.evals_per_event", "count", "lower", 0},
	// sim (A)
	{"sim.round_ms", "ms", "lower", 0},
	// ctl (A,B)
	{"ctl.encode_us", "us", "lower", 0},
	{"ctl.ping_rtt_us", "us", "lower", 0},
	{"ctl.submit_inproc_us", "us", "lower", 0},
	{"ctl.batches", "count", "lower", 0},
	{"ctl.rejected", "count", "lower", 0},
	// wal (A,B)
	{"wal.append_ns", "ns", "lower", 0},
	{"wal.commit_us", "us", "lower", 0},
	{"wal.bytes_per_event", "B", "lower", 0},
	{"wal.syncs_per_kevent", "count", "lower", 0},
	{"wal.replay_krec_per_s", "krec/s", "higher", 0},
	{"wal.checkpoint_ms", "ms", "lower", 0},
	{"wal.checkpoint_mb", "MB", "lower", 0},
	{"wal.replayed_records", "count", "lower", 0},
	// repl (A,B)
	{"repl.frame_us", "us", "lower", 0},
	{"repl.records_sent", "count", "lower", 0},
	{"repl.acks", "count", "lower", 0},
	{"repl.lag_max", "count", "lower", 0},
	{"repl.follower_drops", "count", "lower", 0},
	{"repl.catchup_s", "s", "lower", 0},
	{"repl.failover_ms", "ms", "lower", 0},
	// shard (A,B,C)
	{"shard.keyof_ns", "ns", "lower", 0},
	{"shard.cross_admit_ns", "ns", "lower", 0},
	{"shard.cross_admitted", "count", "higher", 0},
	{"shard.cross_rejected", "count", "lower", 0},
	{"shard.fanouts", "count", "lower", 0},
	{"shard.route_self_us", "us", "lower", 0},
	{"shard.backend_wait_us", "us", "lower", 0},
	// metrics / obs (A)
	{"metrics.stats_inproc_us", "us", "lower", 0},
	{"obs.span_emit_ns", "ns", "lower", 0},
	// span stages (C)
	{"span.ingest_p50_us", "us", "lower", 0},
	{"span.admit_p50_us", "us", "lower", 0},
	{"span.wal_commit_p50_us", "us", "lower", 0},
	{"span.queue_p50_ms", "ms", "lower", 0},
	{"span.exec_p50_ms", "ms", "lower", 0},
	// bench: the machine's speed factor per phase (speed.go) and
	// client-side diagnostics, never gated
	{"bench.speed_setup", "ratio", "lower", 0},
	{"bench.speed_drain", "ratio", "lower", 0},
	{"bench.speed_recover", "ratio", "lower", 0},
	{"bench.speed_paced", "ratio", "lower", 0},
	{"bench.ack_p99_ms", "ms", "lower", 0},
	{"bench.done_p99_ms", "ms", "lower", 0},
	{"bench.late_max_ms", "ms", "lower", 0},
	{"bench.backlog_max_ms", "ms", "lower", 0},
	{"bench.paced_offered", "count", "higher", 0},
	{"bench.drain_cpu_s", "s", "lower", 0},
	{"bench.gc_pause_ms", "ms", "lower", 0},
}
