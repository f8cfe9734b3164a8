package ctl

import (
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"netupdate/internal/obs"
)

// Stats reports controller-wide aggregates. It is the wire view of the
// server's metric registry, not a store of its own: StatsOf decodes it
// from one obs.Sample, each field from the metric its tag names (whose
// help text documents it too) — `metric:"name"` reads a counter or gauge,
// `metric:"name,op"` a histogram's mean, max, count or pNN percentile,
// an info metric's label=KEY or a gauge code's enum=a|b|…, and a bool
// says the metric exists. A field whose metric the sample lacks stays
// zero, which is what omits the WAL, replication and sharding blocks
// where they do not apply. Its JSON is the protocol's OpStats answer.
//
// On a gateway every number is decoded from its shards' samples merged
// by each metric's rule (obs.Merge): percentiles and averages are those
// of every shard's observations together.
type Stats struct {
	Scheduler       string        `json:"scheduler" metric:"netupdate_scheduler_info,label=scheduler"`
	Utilization     float64       `json:"utilization" metric:"netupdate_utilization"`
	FlowsPlaced     int           `json:"flows_placed" metric:"netupdate_flows_placed"`
	EventsQueued    int           `json:"events_queued" metric:"netupdate_queue_depth"`
	EventsDone      int           `json:"events_done" metric:"netupdate_events_done_total"`
	TotalCostBps    int64         `json:"total_cost_bps" metric:"netupdate_cost_bps_total"`
	AvgECT          time.Duration `json:"avg_ect_ns" metric:"netupdate_ect_ns,mean"`
	TailECT         time.Duration `json:"tail_ect_ns" metric:"netupdate_ect_ns,max"`
	AvgQueuingDelay time.Duration `json:"avg_queuing_delay_ns" metric:"netupdate_queuing_delay_ns,mean"`
	PlanTime        time.Duration `json:"plan_time_ns" metric:"netupdate_plan_time_ns_total"`
	VirtualClock    time.Duration `json:"virtual_clock_ns" metric:"netupdate_virtual_clock_ns"`
	// EventsRetained is how many of the EventsDone the server still holds
	// as records, for status and results (at most its done window).
	EventsRetained int `json:"events_retained,omitempty" metric:"netupdate_events_retained"`
	// Probes counts cost probes (Section IV-B probing cost): every event
	// a scheduler or the co-schedule check planned without applying.
	Probes int64 `json:"probes" metric:"netupdate_probe_trial_plans"`
	// Deprecated: the probe cache is gone; the five fields below are kept
	// for bench/ (phases.go reads them) until the benchmark PR that
	// retires netstate.fork_*. ProbeCacheMisses and ProbeColdPlans are
	// decoded from the probe count, like Probes; the other three have no
	// metric and read 0.
	ProbeCacheHits          int64   `json:"probe_cache_hits"`
	ProbeCacheMisses        int64   `json:"probe_cache_misses" metric:"netupdate_probe_trial_plans"`
	ProbeHitRate            float64 `json:"probe_hit_rate"`
	ProbeColdPlans          int64   `json:"probe_cold_plans" metric:"netupdate_probe_trial_plans"`
	ProbeIncrementalReplans int64   `json:"probe_incremental_replans"`
	// Rounds is the number of scheduling rounds executed so far.
	Rounds int64 `json:"rounds" metric:"netupdate_rounds_total"`
	// Fault-injection and recovery telemetry.
	FaultsInjected   int `json:"faults_injected" metric:"netupdate_faults_injected_total"`
	LinksDown        int `json:"links_down" metric:"netupdate_links_down"`
	RepairEvents     int `json:"repair_events" metric:"netupdate_repair_events_total"`
	FlowsDisrupted   int `json:"flows_disrupted" metric:"netupdate_flows_disrupted_total"`
	InstallRetries   int `json:"install_retries" metric:"netupdate_install_retries_total"`
	InstallRollbacks int `json:"install_rollbacks" metric:"netupdate_install_rollbacks_total"`
	// Ingest telemetry: the intake bound and the cumulative submission
	// outcomes (events accepted, events rejected for overload, events
	// accepted from marked backoff retries, requests that admitted at
	// least one event).
	IngestWatermark int   `json:"ingest_watermark" metric:"netupdate_ingest_watermark"`
	IngestAccepted  int64 `json:"ingest_accepted" metric:"netupdate_ingest_accepted_total"`
	IngestRejected  int64 `json:"ingest_rejected" metric:"netupdate_ingest_rejected_total"`
	IngestRetried   int64 `json:"ingest_retried" metric:"netupdate_ingest_retried_total"`
	IngestBatches   int64 `json:"ingest_batches" metric:"netupdate_ingest_batches_total"`
	// Codec telemetry: control connections open now and requests
	// decoded (both in the binary v2 framing).
	CodecV2Conns int64 `json:"codec_v2_conns" metric:"netupdate_ingest_codec_v2_conns"`
	FramesV2     int64 `json:"frames_v2" metric:"netupdate_ingest_frames_v2_total"`
	// WAL / recovery telemetry (all zero when the daemon runs without a
	// write-ahead log).
	WALEnabled       bool  `json:"wal_enabled,omitempty" metric:"netupdate_wal_info"`
	WALLastSeq       int64 `json:"wal_last_seq,omitempty" metric:"netupdate_wal_last_seq"`
	WALCheckpointSeq int64 `json:"wal_checkpoint_seq,omitempty" metric:"netupdate_wal_checkpoint_seq"`
	WALAppends       int64 `json:"wal_appends,omitempty" metric:"netupdate_wal_appends_total"`
	WALCheckpoints   int64 `json:"wal_checkpoints,omitempty" metric:"netupdate_wal_checkpoints_total"`
	WALReplayed      int64 `json:"wal_replayed,omitempty" metric:"netupdate_wal_replayed_records"`
	WALRecoveryMs    int64 `json:"wal_recovery_ms,omitempty" metric:"netupdate_wal_recovery_ms"`
	// Latency pipeline percentiles (wall-clock nanoseconds, explicitly
	// non-deterministic): end-to-end submit→completion, plus the
	// overload breakdown of where the time went (time-in-queue =
	// admission→exec start, time-in-rounds = exec start→completion).
	// Zero until at least one event completed since boot.
	LatencyE2EP50Ns    int64 `json:"latency_e2e_p50_ns,omitempty" metric:"netupdate_latency_e2e_ns,p50"`
	LatencyE2EP95Ns    int64 `json:"latency_e2e_p95_ns,omitempty" metric:"netupdate_latency_e2e_ns,p95"`
	LatencyE2EP99Ns    int64 `json:"latency_e2e_p99_ns,omitempty" metric:"netupdate_latency_e2e_ns,p99"`
	LatencyE2EP999Ns   int64 `json:"latency_e2e_p999_ns,omitempty" metric:"netupdate_latency_e2e_ns,p99.9"`
	LatencyQueueP50Ns  int64 `json:"latency_queue_p50_ns,omitempty" metric:"netupdate_latency_queue_ns,p50"`
	LatencyQueueP99Ns  int64 `json:"latency_queue_p99_ns,omitempty" metric:"netupdate_latency_queue_ns,p99"`
	LatencyRoundsP50Ns int64 `json:"latency_rounds_p50_ns,omitempty" metric:"netupdate_latency_rounds_ns,p50"`
	LatencyRoundsP99Ns int64 `json:"latency_rounds_p99_ns,omitempty" metric:"netupdate_latency_rounds_ns,p99"`
	// SpansDropped counts span records the bounded span sink rejected
	// instead of backpressuring the state loop.
	SpansDropped int64 `json:"spans_dropped,omitempty" metric:"obs_spans_dropped_total"`
	// WAL fsync latency (per group commit under the group policy, per
	// append under always; absent under off or without a WAL).
	WALSyncPolicy string `json:"wal_sync_policy,omitempty" metric:"netupdate_wal_info,label=sync_policy"`
	WALFsyncP50Ns int64  `json:"wal_fsync_p50_ns,omitempty" metric:"netupdate_wal_fsync_ns,p50"`
	WALFsyncP99Ns int64  `json:"wal_fsync_p99_ns,omitempty" metric:"netupdate_wal_fsync_ns,p99"`
	WALFsyncCount int64  `json:"wal_fsync_count,omitempty" metric:"netupdate_wal_fsync_ns,count"`
	// Replication telemetry (all empty/zero when the daemon runs without
	// a WAL): role and term, follower registration and worst acked-seq
	// lag on a leader, records streamed/folded, and the last promotion's
	// drain-to-serving time on a promoted follower.
	ReplRole           string `json:"repl_role,omitempty" metric:"netupdate_repl_role,enum=leader|follower|deposed"`
	ReplTerm           uint64 `json:"repl_term,omitempty" metric:"netupdate_repl_term"`
	ReplFollowers      int    `json:"repl_followers,omitempty" metric:"netupdate_repl_followers"`
	ReplSynced         int    `json:"repl_synced,omitempty" metric:"netupdate_repl_synced_followers"`
	ReplLagRecords     int64  `json:"repl_lag_records,omitempty" metric:"netupdate_repl_lag_records"`
	ReplRecordsSent    int64  `json:"repl_records_sent,omitempty" metric:"netupdate_repl_records_sent_total"`
	ReplRecordsApplied int64  `json:"repl_records_applied,omitempty" metric:"netupdate_repl_records_applied_total"`
	ReplFollowerDrops  int64  `json:"repl_follower_drops,omitempty" metric:"netupdate_repl_follower_drops_total"`
	ReplFailoverMs     int64  `json:"repl_failover_ms,omitempty" metric:"netupdate_repl_failover_ms"`
	// Sharding telemetry (all zero outside a sharded deployment). On a
	// per-shard engine, ShardID is its 1-based identity and Shards the
	// fleet size; on a gateway, ShardID is 0 and Shards the number of
	// backends the stats were aggregated across. The cross counters are
	// gateway-side: cross-shard events admitted through the reserved core
	// pool and accepted by their home shard, and those the pool refused.
	ShardID       int   `json:"shard_id,omitempty" metric:"netupdate_shard_info,label=shard"`
	Shards        int   `json:"shards,omitempty" metric:"netupdate_shard_info,label=shards"`
	CrossEvents   int64 `json:"cross_events,omitempty" metric:"netupdate_gateway_cross_admitted_total"`
	CrossRejected int64 `json:"cross_rejected,omitempty" metric:"netupdate_gateway_cross_rejected_total"`
}

// statsField is one tagged Stats field: the metric it reads and how —
// an info label, a gauge code's names, or a histogram's mean, max, count
// or percentile p.
type statsField struct {
	index  int
	metric string
	label  string
	enum   []string
	op     string
	p      float64
}

// statsFields parses the Stats tags once, sorted by metric name to walk
// a sample in one pass.
var statsFields = sync.OnceValue(func() []statsField {
	var out []statsField
	t := reflect.TypeOf(Stats{})
	for i := 0; i < t.NumField(); i++ {
		tag, ok := t.Field(i).Tag.Lookup("metric")
		if !ok {
			continue
		}
		f := statsField{index: i}
		f.metric, f.op, _ = strings.Cut(tag, ",")
		if names, ok := strings.CutPrefix(f.op, "enum="); ok {
			f.enum = strings.Split(names, "|")
		}
		if label, ok := strings.CutPrefix(f.op, "label="); ok {
			f.label = label
		}
		if p, ok := strings.CutPrefix(f.op, "p"); ok {
			f.p, _ = strconv.ParseFloat(p, 64)
		}
		out = append(out, f)
	}
	slices.SortStableFunc(out, func(a, b statsField) int { return strings.Compare(a.metric, b.metric) })
	return out
})

// StatsOf decodes a registry sample — one server's, or a gateway's merge
// of its shards' — into the Stats wire view. It is the only place a
// Stats value is filled.
func StatsOf(s obs.Sample) *Stats {
	st := new(Stats)
	rv := reflect.ValueOf(st).Elem()
	for _, f := range statsFields() {
		for len(s) > 0 && s[0].Name < f.metric {
			s = s[1:]
		}
		if len(s) == 0 || s[0].Name != f.metric {
			continue
		}
		v, dst := s[0].Value, rv.Field(f.index)
		switch dst.Kind() {
		case reflect.Bool:
			dst.SetBool(true)
		case reflect.Float64:
			dst.SetFloat(v.Float)
		case reflect.String:
			if f.enum == nil {
				dst.SetString(v.Labels[f.label])
			} else if v.Int >= 0 && v.Int < int64(len(f.enum)) {
				dst.SetString(f.enum[v.Int])
			}
		case reflect.Uint64:
			dst.SetUint(uint64(f.number(v)))
		default:
			dst.SetInt(f.number(v))
		}
	}
	return st
}

// number reads the integer a field names: an info label's value, the
// metric's own, or a histogram's mean, max, count or percentile.
func (f *statsField) number(v obs.Value) int64 {
	h := v.Hist
	switch {
	case f.label != "":
		n, _ := strconv.ParseInt(v.Labels[f.label], 10, 64)
		return n
	case f.op == "":
		return v.Int
	case h == nil:
		return 0
	case f.op == "mean":
		return h.Mean()
	case f.op == "max":
		return h.Max
	case f.op == "count":
		return h.Count
	}
	return h.Percentile(f.p)
}
