package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// metric is anything a Registry can expose: it renders itself in
// Prometheus text format and as a plain value for expvar.
type metric interface {
	metricName() string
	writeProm(w io.Writer)
	snapshot() any
}

// Registry holds named metrics and renders them for scraping. All value
// updates are lock-free atomics; the registry lock only guards the metric
// list itself (registration vs. scrape).
type Registry struct {
	mu sync.Mutex
	ms []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, existing := range r.ms {
		if existing.metricName() == m.metricName() {
			panic(fmt.Sprintf("obs: duplicate metric %q", m.metricName()))
		}
	}
	r.ms = append(r.ms, m)
}

// WritePrometheus renders every metric in Prometheus text exposition
// format (metrics sorted by name).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	ms := make([]metric, len(r.ms))
	copy(ms, r.ms)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].metricName() < ms[j].metricName() })
	for _, m := range ms {
		m.writeProm(w)
	}
}

// Snapshot returns a name → value map of every metric (histograms and
// distributions snapshot to nested maps), for expvar publication.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	ms := make([]metric, len(r.ms))
	copy(ms, r.ms)
	r.mu.Unlock()
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.metricName()] = m.snapshot()
	}
	return out
}

// Counter is a monotonically increasing integer metric, safe for
// concurrent use.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }
func (c *Counter) snapshot() any      { return c.Value() }
func (c *Counter) writeProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.Value())
}

// Gauge is a settable instantaneous integer value, safe for concurrent
// use.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (which may be negative), for gauges tracking a level
// such as open connections.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) metricName() string { return g.name }
func (g *Gauge) snapshot() any      { return g.Value() }
func (g *Gauge) writeProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", g.name, g.help, g.name, g.name, g.Value())
}

// FloatGauge is a settable instantaneous float64 value (stored as raw
// bits), safe for concurrent use.
type FloatGauge struct {
	name, help string
	bits       atomic.Uint64
}

// NewFloatGauge registers and returns a float gauge.
func (r *Registry) NewFloatGauge(name, help string) *FloatGauge {
	g := &FloatGauge{name: name, help: help}
	r.register(g)
	return g
}

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *FloatGauge) metricName() string { return g.name }
func (g *FloatGauge) snapshot() any      { return g.Value() }
func (g *FloatGauge) writeProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
		g.name, g.help, g.name, g.name, formatFloat(g.Value()))
}

// Histogram is a log-bucketed cumulative histogram of int64 observations
// (typically durations in nanoseconds), safe for concurrent use. Bucket
// upper bounds double from a configurable start, so a handful of buckets
// cover many orders of magnitude.
type Histogram struct {
	name, help string
	bounds     []int64 // ascending upper bounds; implicit +Inf bucket after
	counts     []atomic.Int64
	sum        atomic.Int64
	count      atomic.Int64
	// max tracks the largest observation so Percentile can snap to it
	// instead of reporting a wide bucket's upper bound (or +Inf).
	max atomic.Int64
}

// NewDurationHistogram registers a histogram with 32 power-of-two
// nanosecond buckets from 1µs (~covering 1µs to over an hour), suitable
// for ECT and queuing-delay observations.
func (r *Registry) NewDurationHistogram(name, help string) *Histogram {
	bounds := make([]int64, 32)
	b := int64(time.Microsecond)
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return r.NewHistogram(name, help, bounds)
}

// NewHistogram registers a histogram with the given ascending upper
// bounds (an implicit +Inf bucket is appended).
func (r *Registry) NewHistogram(name, help string, bounds []int64) *Histogram {
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.register(h)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// Percentile estimates the p-th percentile (0 < p <= 100) by
// nearest-rank over the cumulative bucket counts, reporting the upper
// bound of the bucket the rank falls in. Because log buckets double,
// that upper bound can sit far past the largest sample actually
// observed — so any estimate above the tracked maximum snaps to the
// maximum, which also gives the +Inf bucket a finite answer. Returns 0
// when the histogram is empty or p <= 0 (matching the repo-wide
// percentile contract).
func (h *Histogram) Percentile(p float64) int64 {
	total := h.count.Load()
	if total == 0 || p <= 0 {
		return 0
	}
	if p > 100 {
		p = 100
	}
	rank := int64(math.Ceil(p / 100 * float64(total)))
	var cum int64
	var v int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				v = h.bounds[i]
			} else {
				v = h.max.Load()
			}
			break
		}
	}
	// Snap to the observed max (when known: histograms restored from
	// pre-max checkpoints carry max == 0 and keep the bucket bound).
	if m := h.max.Load(); m > 0 && v > m {
		v = m
	}
	return v
}

// HistogramState is a serializable snapshot of a histogram's raw
// per-bucket counts (not cumulative), used by checkpoint/recovery to
// carry observation streams across a restart.
type HistogramState struct {
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
	Max    int64   `json:"max,omitempty"`
}

// State captures the histogram for checkpointing.
func (h *Histogram) State() HistogramState {
	st := HistogramState{Counts: make([]int64, len(h.counts)), Sum: h.Sum(), Count: h.Count(), Max: h.max.Load()}
	for i := range h.counts {
		st.Counts[i] = h.counts[i].Load()
	}
	return st
}

// Restore adds a checkpointed state into the histogram. It is meant for
// a freshly registered histogram during recovery; bucket layouts must
// match (extra or missing buckets are ignored rather than guessed at).
func (h *Histogram) Restore(st HistogramState) {
	for i, c := range st.Counts {
		if i < len(h.counts) {
			h.counts[i].Add(c)
		}
	}
	h.sum.Add(st.Sum)
	h.count.Add(st.Count)
	for {
		m := h.max.Load()
		if st.Max <= m || h.max.CompareAndSwap(m, st.Max) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

func (h *Histogram) metricName() string { return h.name }

func (h *Histogram) snapshot() any {
	buckets := make(map[string]int64, len(h.bounds)+1)
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		buckets["le_"+strconv.FormatInt(b, 10)] = cum
	}
	cum += h.counts[len(h.bounds)].Load()
	buckets["le_inf"] = cum
	return map[string]any{"count": h.Count(), "sum": h.Sum(), "buckets": buckets}
}

func (h *Histogram) writeProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", h.name, b, cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(w, "%s_sum %d\n", h.name, h.Sum())
	fmt.Fprintf(w, "%s_count %d\n", h.name, h.Count())
}

// Distribution is a refreshable snapshot histogram of float64 samples:
// each Update replaces the whole distribution. Unlike Histogram it
// describes current state (e.g. the link-utilization distribution right
// now), not a stream of observations. Readers may observe a torn update
// across buckets; each bucket value is individually consistent, which is
// all a monitoring scrape needs.
type Distribution struct {
	name, help string
	bounds     []float64 // ascending upper bounds; implicit +Inf after
	counts     []atomic.Int64
	scratch    []int64 // Update-side accumulation; single updater only
}

// NewDistribution registers a distribution with the given ascending
// upper bounds.
func (r *Registry) NewDistribution(name, help string, bounds []float64) *Distribution {
	d := &Distribution{
		name:    name,
		help:    help,
		bounds:  append([]float64(nil), bounds...),
		counts:  make([]atomic.Int64, len(bounds)+1),
		scratch: make([]int64, len(bounds)+1),
	}
	r.register(d)
	return d
}

// Update recomputes the distribution from samples. Only one goroutine
// may call Update (readers are unrestricted).
func (d *Distribution) Update(samples []float64) {
	for i := range d.scratch {
		d.scratch[i] = 0
	}
	for _, v := range samples {
		i := sort.SearchFloat64s(d.bounds, v)
		// SearchFloat64s finds the first bound >= v, which is the
		// (v <= bound) bucket except when v exceeds every bound.
		d.scratch[i]++
	}
	for i := range d.counts {
		d.counts[i].Store(d.scratch[i])
	}
}

func (d *Distribution) metricName() string { return d.name }

func (d *Distribution) snapshot() any {
	buckets := make(map[string]int64, len(d.bounds)+1)
	var cum int64
	for i, b := range d.bounds {
		cum += d.counts[i].Load()
		buckets["le_"+formatFloat(b)] = cum
	}
	cum += d.counts[len(d.bounds)].Load()
	buckets["le_inf"] = cum
	return buckets
}

func (d *Distribution) writeProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", d.name, d.help, d.name)
	var cum int64
	for i, b := range d.bounds {
		cum += d.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", d.name, formatFloat(b), cum)
	}
	cum += d.counts[len(d.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", d.name, cum)
}

// formatFloat renders floats compactly ("0.6", not "0.600000").
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// SimMetrics is the live metric set the engine maintains: queue depth,
// virtual clock, utilization, round/event counters, the probe count,
// the ECT and queuing-delay histograms, and the current
// link-utilization distribution.
type SimMetrics struct {
	QueueDepth   *Gauge
	VirtualClock *Gauge
	Utilization  *FloatGauge

	Rounds        *Counter
	EventsDone    *Counter
	FlowsAdmitted *Counter
	FlowsFailed   *Counter

	// Probes is the run total of cost probes (trial plans).
	Probes *Gauge

	ECT          *Histogram
	QueuingDelay *Histogram
	LinkUtil     *Distribution

	FaultsInjected   *Counter
	LinksDown        *Gauge
	RepairEvents     *Counter
	FlowsDisrupted   *Counter
	InstallRetries   *Counter
	InstallRollbacks *Counter
}

// NewSimMetrics registers the full engine metric set under the
// "netupdate_" prefix.
func NewSimMetrics(r *Registry) *SimMetrics {
	utilBounds := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	return &SimMetrics{
		QueueDepth:   r.NewGauge("netupdate_queue_depth", "Events waiting in the update queue."),
		VirtualClock: r.NewGauge("netupdate_virtual_clock_ns", "Simulation virtual clock in nanoseconds."),
		Utilization:  r.NewFloatGauge("netupdate_utilization", "Overall link utilization of the fabric."),

		Rounds:        r.NewCounter("netupdate_rounds_total", "Scheduling rounds executed."),
		EventsDone:    r.NewCounter("netupdate_events_done_total", "Update events completed."),
		FlowsAdmitted: r.NewCounter("netupdate_flows_admitted_total", "Event flows admitted."),
		FlowsFailed:   r.NewCounter("netupdate_flows_failed_total", "Event flow specs that could not be admitted."),

		Probes: r.NewGauge("netupdate_probe_trial_plans", "Cost probes trial-planned on the live network (run total)."),

		ECT:          r.NewDurationHistogram("netupdate_ect_ns", "Event completion time (completion - arrival), ns."),
		QueuingDelay: r.NewDurationHistogram("netupdate_queuing_delay_ns", "Event queuing delay (start - arrival), ns."),
		LinkUtil:     r.NewDistribution("netupdate_link_utilization", "Current per-link utilization distribution.", utilBounds),

		FaultsInjected:   r.NewCounter("netupdate_faults_injected_total", "Fault injections applied to the run."),
		LinksDown:        r.NewGauge("netupdate_links_down", "Links currently failed."),
		RepairEvents:     r.NewCounter("netupdate_repair_events_total", "Update events minted from link/switch failures."),
		FlowsDisrupted:   r.NewCounter("netupdate_flows_disrupted_total", "Placed flows withdrawn by link/switch failures."),
		InstallRetries:   r.NewCounter("netupdate_install_retries_total", "Rule-install attempts that timed out and were retried."),
		InstallRollbacks: r.NewCounter("netupdate_install_rollbacks_total", "Events rolled back after exhausting the install retry budget."),
	}
}

// IngestMetrics is the live metric set of the daemon's batched ingest
// path: submission outcomes (accepted / rejected-for-overload / accepted
// on a marked retry), the size distribution of admitted batches, and the
// intake bound itself. The queue-depth gauge lives in SimMetrics — the
// engine refreshes it on every arrival and round.
type IngestMetrics struct {
	Accepted  *Counter
	Rejected  *Counter
	Retried   *Counter
	Batches   *Counter
	BatchSize *Histogram
	Watermark *Gauge
	// CodecV2Conns tracks connections currently speaking the binary v2
	// framing; FramesV1/FramesV2 count requests decoded per codec.
	CodecV2Conns *Gauge
	FramesV1     *Counter
	FramesV2     *Counter
}

// NewIngestMetrics registers the ingest metric set under the
// "netupdate_ingest_" prefix.
func NewIngestMetrics(r *Registry) *IngestMetrics {
	// Power-of-two batch-size buckets 1..4096 cover single submits
	// through the largest sane wire batches.
	bounds := make([]int64, 13)
	b := int64(1)
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return &IngestMetrics{
		Accepted:  r.NewCounter("netupdate_ingest_accepted_total", "Submitted events admitted into the update queue."),
		Rejected:  r.NewCounter("netupdate_ingest_rejected_total", "Submitted events rejected with an overload response."),
		Retried:   r.NewCounter("netupdate_ingest_retried_total", "Events admitted from requests marked as backoff retries."),
		Batches:   r.NewCounter("netupdate_ingest_batches_total", "Submit requests that admitted at least one event."),
		BatchSize: r.NewHistogram("netupdate_ingest_batch_size", "Events admitted per submit request.", bounds),
		Watermark: r.NewGauge("netupdate_ingest_watermark", "Queue high-watermark past which submissions are rejected."),
		CodecV2Conns: r.NewGauge("netupdate_ingest_codec_v2_conns",
			"Connections currently speaking the binary v2 framing."),
		FramesV1: r.NewCounter("netupdate_ingest_frames_v1_total", "Requests decoded from the JSON v1 codec."),
		FramesV2: r.NewCounter("netupdate_ingest_frames_v2_total", "Requests decoded from the binary v2 codec."),
	}
}

// WALMetrics is the live metric set of the write-ahead log and its
// recovery path: append/commit/fsync activity, checkpoint progress, and
// what the last recovery replayed and how long it took.
type WALMetrics struct {
	Appends *Counter
	Bytes   *Counter
	Commits *Counter
	Syncs   *Counter

	Checkpoints   *Counter
	CheckpointSeq *Gauge
	LastSeq       *Gauge

	Replayed   *Counter
	RecoveryMs *Gauge
}

// NewWALMetrics registers the WAL metric set under the "netupdate_wal_"
// prefix. It is only registered when the daemon runs with a WAL.
func NewWALMetrics(r *Registry) *WALMetrics {
	return &WALMetrics{
		Appends: r.NewCounter("netupdate_wal_appends_total", "Records appended to the write-ahead log."),
		Bytes:   r.NewCounter("netupdate_wal_bytes_total", "Bytes written to the write-ahead log (frames included)."),
		Commits: r.NewCounter("netupdate_wal_commits_total", "Group commits of appended WAL records."),
		Syncs:   r.NewCounter("netupdate_wal_syncs_total", "fsync calls issued by the WAL writer."),

		Checkpoints:   r.NewCounter("netupdate_wal_checkpoints_total", "Checkpoints taken (log truncations)."),
		CheckpointSeq: r.NewGauge("netupdate_wal_checkpoint_seq", "Log sequence covered by the newest checkpoint."),
		LastSeq:       r.NewGauge("netupdate_wal_last_seq", "Sequence number of the last appended WAL record."),

		Replayed:   r.NewCounter("netupdate_wal_replayed_records", "Records replayed from the log during the last recovery."),
		RecoveryMs: r.NewGauge("netupdate_wal_recovery_ms", "Wall-clock milliseconds the last recovery took."),
	}
}

// ReplMetrics is the live metric set of WAL replication: the server's
// role and term, follower registration and lag on the leader, frame
// traffic in both directions, and the promotion path's failover time.
type ReplMetrics struct {
	// Role is 0 on a leader, 1 on a follower, 2 once deposed.
	Role *Gauge
	Term *Gauge

	// Followers/SyncedFollowers count registered replication sessions on
	// the leader; LagRecords is the worst acked-sequence lag across them
	// (on a follower: its own lag behind the leader's heartbeats), with
	// Lag the sampled distribution behind the p99 quantile view.
	Followers       *Gauge
	SyncedFollowers *Gauge
	LagRecords      *Gauge
	Lag             *Histogram
	LagQuantiles    *Quantiles

	// RecordsSent counts WAL records streamed to followers;
	// RecordsApplied records folded by this follower; AcksReceived
	// follower durability acks seen by the leader; FollowerDrops
	// sessions the leader dropped for lagging past the ack timeout or
	// overflowing their outbox.
	RecordsSent    *Counter
	RecordsApplied *Counter
	AcksReceived   *Counter
	HeartbeatsSent *Counter
	FollowerDrops  *Counter

	// Promotions counts role flips to leader; Failover is the drain-to-
	// serving time distribution and FailoverMs the last observed value.
	Promotions *Counter
	Failover   *Histogram
	FailoverMs *Gauge
}

// NewReplMetrics registers the replication metric set under the
// "netupdate_repl_" prefix. It is only registered when the daemon runs
// with a WAL (replication folds the WAL, so there is nothing to
// replicate without one).
func NewReplMetrics(r *Registry) *ReplMetrics {
	// Power-of-two lag buckets 1..65536 records.
	lagBounds := make([]int64, 17)
	lb := int64(1)
	for i := range lagBounds {
		lagBounds[i] = lb
		lb *= 2
	}
	m := &ReplMetrics{
		Role: r.NewGauge("netupdate_repl_role", "Replication role: 0 leader, 1 follower, 2 deposed."),
		Term: r.NewGauge("netupdate_repl_term", "Current replication term."),

		Followers:       r.NewGauge("netupdate_repl_followers", "Replication sessions currently registered on this leader."),
		SyncedFollowers: r.NewGauge("netupdate_repl_synced_followers", "Registered followers that have caught up and gate commits."),
		LagRecords:      r.NewGauge("netupdate_repl_lag_records", "Worst follower lag in WAL records (own lag on a follower)."),
		Lag:             r.NewHistogram("netupdate_repl_lag_records_hist", "Observed replication lag samples, in WAL records.", lagBounds),

		RecordsSent:    r.NewCounter("netupdate_repl_records_sent_total", "WAL records streamed to followers."),
		RecordsApplied: r.NewCounter("netupdate_repl_records_applied_total", "Replicated WAL records folded by this follower."),
		AcksReceived:   r.NewCounter("netupdate_repl_acks_total", "Follower durability acknowledgements received."),
		HeartbeatsSent: r.NewCounter("netupdate_repl_heartbeats_total", "Heartbeat frames sent to followers."),
		FollowerDrops:  r.NewCounter("netupdate_repl_follower_drops_total", "Follower sessions dropped for ack timeout or outbox overflow."),

		Promotions: r.NewCounter("netupdate_repl_promotions_total", "Role flips from follower to leader."),
		Failover:   r.NewDurationHistogram("netupdate_repl_failover_ns", "Promotion drain-to-serving time, ns."),
		FailoverMs: r.NewGauge("netupdate_repl_failover_ms", "Last promotion's drain-to-serving time, ms."),
	}
	m.LagQuantiles = r.NewQuantiles("netupdate_repl_lag_records_q", "Replication lag percentiles, in WAL records.", m.Lag, 50, 99)
	return m
}

// Quantiles renders chosen percentiles of a histogram at scrape time as
// a labelled gauge family (name{q="0.99"} ...). It registers no storage
// of its own — values come from Histogram.Percentile on demand.
type Quantiles struct {
	name, help string
	h          *Histogram
	qs         []float64
}

// NewQuantiles registers a quantile view over h. qs are percentiles in
// (0, 100], e.g. 50, 95, 99, 99.9.
func (r *Registry) NewQuantiles(name, help string, h *Histogram, qs ...float64) *Quantiles {
	q := &Quantiles{name: name, help: help, h: h, qs: append([]float64(nil), qs...)}
	r.register(q)
	return q
}

func (q *Quantiles) metricName() string { return q.name }

func (q *Quantiles) snapshot() any {
	out := make(map[string]int64, len(q.qs))
	for _, p := range q.qs {
		out["p"+formatFloat(p)] = q.h.Percentile(p)
	}
	return out
}

func (q *Quantiles) writeProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", q.name, q.help, q.name)
	for _, p := range q.qs {
		fmt.Fprintf(w, "%s{q=\"%s\"} %d\n", q.name, formatFloat(p/100), q.h.Percentile(p))
	}
}

// LatencyMetrics is the stage-level latency pipeline: wall-clock
// histograms for each hop an event takes from client submit to
// completion, the end-to-end distribution with a scrape-time quantile
// view, the WAL fsync latency, and the span-drop counter of the bounded
// span sink. All values are wall-clock nanoseconds and therefore
// explicitly NON-deterministic — they never enter trace records on the
// virtual-clock channel.
type LatencyMetrics struct {
	// Ingest is client submit → server ingest decode (requires a wire
	// span context; empty otherwise). Admit is ingest decode → queue
	// admission; WALCommit is admission → durable (WAL servers only).
	Ingest    *Histogram
	Admit     *Histogram
	WALCommit *Histogram
	// Queue is admission → execution start (time-in-queue) and Rounds is
	// execution start → completion (time-in-rounds): together they are
	// the overload breakdown that makes watermark backpressure visible.
	Queue  *Histogram
	Rounds *Histogram
	// E2E is the end-to-end latency: client submit (or, without wire
	// context, server ingest) → completion.
	E2E *Histogram
	// WALFsync observes each fsync issued by the WAL writer; under
	// SyncGroup one sample per group commit, under SyncAlways one per
	// append.
	WALFsync *Histogram
	// SpansDropped counts span records dropped by the bounded span sink
	// instead of backpressuring the state loop.
	SpansDropped *Counter
}

// NewLatencyMetrics registers the latency pipeline metric set.
func NewLatencyMetrics(r *Registry) *LatencyMetrics {
	m := &LatencyMetrics{
		Ingest:    r.NewDurationHistogram("netupdate_latency_submit_ingest_ns", "Client submit to server ingest decode, wall ns (requires wire span context)."),
		Admit:     r.NewDurationHistogram("netupdate_latency_ingest_admit_ns", "Server ingest decode to queue admission, wall ns."),
		WALCommit: r.NewDurationHistogram("netupdate_latency_wal_commit_ns", "Queue admission to durable WAL commit, wall ns."),
		Queue:     r.NewDurationHistogram("netupdate_latency_queue_ns", "Queue admission to execution start (time-in-queue), wall ns."),
		Rounds:    r.NewDurationHistogram("netupdate_latency_rounds_ns", "Execution start to completion (time-in-rounds), wall ns."),
		E2E:       r.NewDurationHistogram("netupdate_latency_e2e_ns", "End-to-end event latency (submit or ingest to completion), wall ns."),
		WALFsync:  r.NewDurationHistogram("netupdate_wal_fsync_ns", "WAL fsync duration, wall ns (per group commit under group policy, per append under always)."),
		SpansDropped: r.NewCounter("obs_spans_dropped_total",
			"Span records dropped by the bounded span sink instead of backpressuring the state loop."),
	}
	r.NewQuantiles("netupdate_latency_e2e_quantile_ns",
		"End-to-end event latency percentiles, wall ns.", m.E2E, 50, 95, 99, 99.9)
	return m
}
