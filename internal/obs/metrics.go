package obs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Rule says how Merge combines one metric's readings from several
// registries (the shards behind a gateway). Every metric declares its
// rule when it is registered.
type Rule uint8

const (
	// MergeSum adds: counters, and gauges that count things.
	MergeSum Rule = iota
	// MergeMax keeps the largest: clocks, sequence numbers, terms.
	MergeMax
	// MergeMean averages over the registries that hold the metric:
	// levels such as utilization.
	MergeMean
	// MergeFirst keeps the first registry's reading: facts every member
	// shares, such as the scheduler name.
	MergeFirst
	// MergeBuckets adds histograms bucket by bucket (sum and count add,
	// the maximum is the largest), so a merged percentile is the
	// percentile of every observation.
	MergeBuckets
)

// desc is what every metric embeds: its name and help text, its merge
// rule, and how to read its current value. A restorable metric also says
// how to add a checkpointed reading back (Registry.Restore); restore is
// nil on every process-local one.
type desc struct {
	name, help string
	rule       Rule
	read       func() Value
	restore    func(Value)
}

// writeProm renders the metric's current value in Prometheus text format.
func (d *desc) writeProm(w io.Writer) { d.render(w, d.read()) }

// Registry holds named metrics and renders them for scraping. All value
// updates are lock-free atomics; the registry lock only guards the metric
// list itself (registration vs. scrape).
type Registry struct {
	mu sync.Mutex
	ms []*desc // sorted by name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) register(d *desc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := sort.Search(len(r.ms), func(i int) bool { return r.ms[i].name >= d.name })
	if i < len(r.ms) && r.ms[i].name == d.name {
		panic(fmt.Sprintf("obs: duplicate metric %q", d.name))
	}
	r.ms = slices.Insert(r.ms, i, d)
}

// WritePrometheus renders every metric in Prometheus text exposition
// format (metrics sorted by name).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	ms := slices.Clone(r.ms)
	r.mu.Unlock()
	for _, m := range ms {
		m.writeProm(w)
	}
}

// Sample reads every metric once: the registry's one typed view, which
// Stats decodes, Merge combines and Snapshot projects.
func (r *Registry) Sample() Sample { return r.sample(func(*desc) bool { return true }) }

// Restorable reads the metrics registered restorable
// (`metric:"name,restore"`): the part of Sample that is a fold of the
// admitted history, which a checkpoint carries and Restore adds back.
// The rest — gauges, and counts of one process's own work — starts
// afresh in every process.
func (r *Registry) Restorable() Sample {
	return r.sample(func(d *desc) bool { return d.restore != nil })
}

// sample reads the metrics keep selects, in name order.
func (r *Registry) sample(keep func(*desc) bool) Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := make(Sample, 0, len(r.ms))
	for _, m := range r.ms {
		if keep(m) {
			s = append(s, Metric{m.name, m.read()})
			s[len(s)-1].Rule = m.rule
		}
	}
	return s
}

// Restore adds a checkpointed Restorable reading into the registry —
// counters by their count, histograms by their buckets, sum, count and
// maximum — for a freshly built registry during recovery. It refuses,
// restoring nothing, a sample naming a metric the registry does not hold
// as restorable, or one whose type or histogram bounds differ from the
// registered metric's.
func (r *Registry) Restore(s Sample) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	into := make([]*desc, len(s))
	for i, m := range s {
		j := sort.Search(len(r.ms), func(j int) bool { return r.ms[j].name >= m.Name })
		if j == len(r.ms) || r.ms[j].name != m.Name || r.ms[j].restore == nil {
			return fmt.Errorf("obs: restoring %s: not a restorable metric", m.Name)
		}
		if err := fits(r.ms[j].read(), m.Value); err != nil {
			return fmt.Errorf("obs: restoring %s: %w", m.Name, err)
		}
		into[i] = r.ms[j]
	}
	for i, d := range into {
		d.restore(s[i].Value)
	}
	return nil
}

// fits says why reading v cannot be added into a metric that reads have.
func fits(have, v Value) error {
	if v.Type != have.Type {
		return fmt.Errorf("type %d, registered as %d", v.Type, have.Type)
	}
	if v.Type != TypeHistogram {
		return nil
	}
	outside := func(b Bucket) bool { return b.Index < 0 || b.Index > len(have.Hist.Bounds) }
	if v.Hist == nil || !slices.Equal(v.Hist.Bounds, have.Hist.Bounds) || slices.ContainsFunc(v.Hist.Buckets, outside) {
		return errors.New("histogram layout differs from the registered one")
	}
	return nil
}

// Snapshot returns a name → plain value map of every metric, for expvar
// publication: int64 counters and gauges, float64 float gauges, and
// nested maps for histograms, distributions, quantiles and info labels.
func (r *Registry) Snapshot() map[string]any {
	s := r.Sample()
	out := make(map[string]any, len(s))
	for _, m := range s {
		out[m.Name] = m.plain()
	}
	return out
}

// Counter is a monotonically increasing integer metric, safe for
// concurrent use.
type Counter struct {
	desc
	v atomic.Int64
}

// NewCounter registers and returns a counter. Counters merge by sum.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	c.desc = desc{name, help, MergeSum, func() Value { return Value{Type: TypeCounter, Int: c.Value()} }, nil}
	r.register(&c.desc)
	return c
}

// NewCounterFunc registers a counter whose value f reports, for a count
// kept (and incremented in one place) outside the registry.
func (r *Registry) NewCounterFunc(name, help string, f func() int64) {
	r.register(&desc{name, help, MergeSum, func() Value { return Value{Type: TypeCounter, Int: f()} }, nil})
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous integer value, safe for concurrent
// use.
type Gauge struct {
	desc
	v atomic.Int64
}

// NewGauge registers and returns a gauge merged by rule.
func (r *Registry) NewGauge(name, help string, rule Rule) *Gauge {
	g := &Gauge{}
	g.desc = desc{name, help, rule, func() Value { return Value{Type: TypeGauge, Int: g.Value()} }, nil}
	r.register(&g.desc)
	return g
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (which may be negative), for gauges tracking a level
// such as open connections.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a settable instantaneous float64 value (stored as raw
// bits), safe for concurrent use.
type FloatGauge struct {
	desc
	bits atomic.Uint64
}

// NewFloatGauge registers and returns a float gauge merged by rule.
func (r *Registry) NewFloatGauge(name, help string, rule Rule) *FloatGauge {
	g := &FloatGauge{}
	g.desc = desc{name, help, rule, func() Value { return Value{Type: TypeFloat, Float: g.Value()} }, nil}
	r.register(&g.desc)
	return g
}

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Info is a Prometheus-style info metric: a constant 1 whose labels
// carry string facts (scheduler name, WAL sync policy, shard identity).
// Infos merge by keeping the first registry's labels.
type Info struct {
	desc
	labels atomic.Pointer[map[string]string]
}

// NewInfo registers an info metric with its initial labels.
func (r *Registry) NewInfo(name, help string, labels map[string]string) *Info {
	in := &Info{}
	in.Set(labels)
	in.desc = desc{name, help, MergeFirst, func() Value { return Value{Type: TypeInfo, Labels: *in.labels.Load()} }, nil}
	r.register(&in.desc)
	return in
}

// Set replaces the labels; the map must not be modified afterwards.
func (in *Info) Set(labels map[string]string) { in.labels.Store(&labels) }

// Histogram is a log-bucketed cumulative histogram of int64 observations
// (typically durations in nanoseconds), safe for concurrent use. Bucket
// upper bounds double from a configurable start, so a handful of buckets
// cover many orders of magnitude. Histograms merge bucket by bucket.
type Histogram struct {
	desc
	bounds []int64 // ascending upper bounds; implicit +Inf bucket after
	counts []atomic.Int64
	sum    atomic.Int64
	count  atomic.Int64
	// max tracks the largest observation so Percentile can snap to it
	// instead of reporting a wide bucket's upper bound (or +Inf).
	max atomic.Int64
	// empty is the reading while nothing was observed, shared by every
	// such read (readings are never modified).
	empty *HistogramValue
}

// NewDurationHistogram registers a histogram with 32 power-of-two
// nanosecond buckets from 1µs (~covering 1µs to over an hour), suitable
// for ECT and queuing-delay observations.
func (r *Registry) NewDurationHistogram(name, help string) *Histogram {
	return r.NewHistogram(name, help, doubling(int64(time.Microsecond), 32))
}

// NewHistogram registers a histogram with the given ascending upper
// bounds (an implicit +Inf bucket is appended).
func (r *Registry) NewHistogram(name, help string, bounds []int64) *Histogram {
	h := &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.empty = &HistogramValue{Bounds: h.bounds}
	h.desc = desc{name, help, MergeBuckets, func() Value { return Value{Type: TypeHistogram, Hist: h.value()} }, nil}
	r.register(&h.desc)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	h.raiseMax(v)
}

// raiseMax makes v the maximum if it is larger.
func (h *Histogram) raiseMax(v int64) {
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// add folds in a checkpointed reading of the same layout (Restore checks
// it fits first).
func (h *Histogram) add(v Value) {
	for _, b := range v.Hist.Buckets {
		h.counts[b.Index].Add(b.Count)
	}
	h.sum.Add(v.Hist.Sum)
	h.count.Add(v.Hist.Count)
	h.raiseMax(v.Hist.Max)
}

// value reads the histogram: its non-empty buckets, sum, count and max.
func (h *Histogram) value() *HistogramValue {
	if h.Count() == 0 {
		return h.empty
	}
	return &HistogramValue{Bounds: h.bounds, Sum: h.Sum(), Count: h.Count(), Max: h.max.Load(),
		Buckets: nonEmpty(h.counts)}
}

// Percentile estimates the p-th percentile; see HistogramValue.Percentile.
func (h *Histogram) Percentile(p float64) int64 { return h.value().Percentile(p) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Distribution is a refreshable snapshot histogram of float64 samples:
// each Update replaces the whole distribution. Unlike Histogram it
// describes current state (e.g. the link-utilization distribution right
// now), not a stream of observations. Readers may observe a torn update
// across buckets; each bucket value is individually consistent, which is
// all a monitoring scrape needs.
type Distribution struct {
	desc
	bounds  []float64 // ascending upper bounds; implicit +Inf after
	counts  []atomic.Int64
	scratch []int64 // Update-side accumulation; single updater only
	// inv is the inverse spacing of evenly spaced bounds, 0 when they
	// are not: then a sample's bucket is arithmetic, not a search.
	inv float64
}

// NewDistribution registers a distribution with the given ascending
// upper bounds. Distributions merge bucket by bucket.
func (r *Registry) NewDistribution(name, help string, bounds []float64) *Distribution {
	d := &Distribution{
		bounds:  append([]float64(nil), bounds...),
		counts:  make([]atomic.Int64, len(bounds)+1),
		scratch: make([]int64, len(bounds)+1),
		inv:     evenInv(bounds),
	}
	d.desc = desc{name, help, MergeBuckets, func() Value {
		return Value{Type: TypeDistribution, Hist: &HistogramValue{FBounds: d.bounds,
			Buckets: nonEmpty(d.counts)}}
	}, nil}
	r.register(&d.desc)
	return d
}

// Update recomputes the distribution from samples. Only one goroutine
// may call Update (readers are unrestricted).
func (d *Distribution) Update(samples []float64) {
	for i := range d.scratch {
		d.scratch[i] = 0
	}
	if d.inv == 0 {
		for _, v := range samples {
			d.scratch[sort.SearchFloat64s(d.bounds, v)]++
		}
	} else {
		for _, v := range samples {
			d.scratch[d.evenBucket(v)]++
		}
	}
	for i := range d.counts {
		d.counts[i].Store(d.scratch[i])
	}
}

// evenBucket returns the index of v's bucket when the bounds are evenly
// spaced (inv > 0): the first bound >= v, or len(bounds) when v exceeds
// every bound or is NaN — what sort.SearchFloat64s answers.
func (d *Distribution) evenBucket(v float64) int {
	n := len(d.bounds)
	i := n
	if f := (v - d.bounds[0]) * d.inv; f < 0 {
		i = 0
	} else if f < float64(n) {
		i = int(f) + 1
	}
	// The estimate is one bucket high at a bound, and rounding can put
	// it one bucket off next to one.
	if i > 0 && d.bounds[i-1] >= v {
		i--
	} else if i < n && d.bounds[i] < v {
		i++
	}
	return i
}

// evenInv returns the inverse spacing of bounds when there are at least
// two and they are evenly spaced up to rounding, else 0.
func evenInv(bounds []float64) float64 {
	n := len(bounds)
	if n < 2 {
		return 0
	}
	step := (bounds[n-1] - bounds[0]) / float64(n-1)
	if !(step > 0) || math.IsInf(step, 0) {
		return 0
	}
	for i, b := range bounds {
		if math.Abs(b-(bounds[0]+float64(i)*step)) > step*1e-9 {
			return 0
		}
	}
	return 1 / step
}

// NewQuantiles registers a view rendering chosen percentiles of h at
// read time as a labelled gauge family (name{q="0.99"} ...). It stores
// nothing of its own: its value carries h's buckets, and merges like them.
// qs are percentiles in (0, 100], e.g. 50, 95, 99, 99.9.
func (r *Registry) NewQuantiles(name, help string, h *Histogram, qs ...float64) {
	qs = append([]float64(nil), qs...)
	r.register(&desc{name, help, MergeBuckets, func() Value {
		v := *h.value()
		v.Qs = qs
		return Value{Type: TypeQuantiles, Hist: &v}
	}, nil})
}

// register creates every metric field of the struct set points to from
// the field's tags — `metric:"name"`; for a gauge merged other than by
// sum, `metric:"name,max|mean|first"`; for a counter or histogram that
// is a fold of the admitted history, so a checkpoint carries it,
// `metric:"name,restore"`; `help:"…"`; a histogram's `buckets:"first,n"`
// (n bounds doubling from first; the duration layout when absent) or a
// distribution's `bounds:"b1,b2,…"` — so each metric is named once,
// beside the field that holds it.
func register[T any](r *Registry, set *T) *T {
	v := reflect.ValueOf(set).Elem()
	for i := 0; i < v.NumField(); i++ {
		tag := v.Type().Field(i).Tag
		name, opt, _ := strings.Cut(tag.Get("metric"), ",")
		help := tag.Get("help")
		var m any
		switch v.Field(i).Interface().(type) {
		case *Counter:
			c := r.NewCounter(name, help)
			if opt == "restore" {
				c.restore = func(v Value) { c.Add(v.Int) }
			}
			m = c
		case *Gauge:
			m = r.NewGauge(name, help, gaugeRules[opt])
		case *FloatGauge:
			m = r.NewFloatGauge(name, help, gaugeRules[opt])
		case *Histogram:
			var h *Histogram
			if first, n, ok := strings.Cut(tag.Get("buckets"), ","); ok {
				f, _ := strconv.ParseInt(first, 10, 64)
				count, _ := strconv.Atoi(n)
				h = r.NewHistogram(name, help, doubling(f, count))
			} else {
				h = r.NewDurationHistogram(name, help)
			}
			if opt == "restore" {
				h.restore = h.add
			}
			m = h
		case *Distribution:
			var bounds []float64
			for _, b := range strings.Split(tag.Get("bounds"), ",") {
				f, _ := strconv.ParseFloat(b, 64)
				bounds = append(bounds, f)
			}
			m = r.NewDistribution(name, help, bounds)
		case *Info:
			m = r.NewInfo(name, help, nil)
		}
		v.Field(i).Set(reflect.ValueOf(m))
	}
	return set
}

// gaugeRules spells the merge rules a gauge's metric tag may name.
var gaugeRules = map[string]Rule{"": MergeSum, "max": MergeMax, "mean": MergeMean, "first": MergeFirst}

// doubling returns n bucket bounds doubling from first.
func doubling(first int64, n int) []int64 {
	bounds := make([]int64, n)
	for i := range bounds {
		bounds[i] = first << i
	}
	return bounds
}

// SimMetrics is the live metric set of an engine: queue depth, virtual
// clock, utilization, round/event counters, the probe count, the ECT and
// queuing-delay histograms, and the current link-utilization
// distribution. The tracer sets the counters, histograms and queue depth
// as rounds run; the gauges that describe the world (clock, utilization,
// flows placed, links down, link distribution) are computed by the
// engine's owner when they are read (ctl's refreshGauges).
type SimMetrics struct {
	QueueDepth   *Gauge      `metric:"netupdate_queue_depth" help:"Events waiting in the update queue."`
	VirtualClock *Gauge      `metric:"netupdate_virtual_clock_ns,max" help:"Simulation virtual clock in nanoseconds."`
	Utilization  *FloatGauge `metric:"netupdate_utilization,mean" help:"Overall link utilization of the fabric."`
	FlowsPlaced  *Gauge      `metric:"netupdate_flows_placed" help:"Flows currently placed on the fabric."`

	Rounds        *Counter `metric:"netupdate_rounds_total,restore" help:"Scheduling rounds executed."`
	EventsDone    *Counter `metric:"netupdate_events_done_total,restore" help:"Update events completed."`
	FlowsAdmitted *Counter `metric:"netupdate_flows_admitted_total,restore" help:"Event flows admitted."`
	FlowsFailed   *Counter `metric:"netupdate_flows_failed_total,restore" help:"Event flow specs that could not be admitted."`

	// Probes is the run total of cost probes (plans made without being
	// applied). The metric keeps its historical name.
	Probes *Gauge `metric:"netupdate_probe_trial_plans" help:"Cost probes planned on a read-only view of the network (run total)."`
	// Cost is the realized Cost(U) of every completed event, bits/s, and
	// PlanTime the simulated planning time spent so far, ns: the
	// collector's totals, counted where the collector counts them.
	Cost     *Counter `metric:"netupdate_cost_bps_total,restore" help:"Realized update cost Cost(U) of completed events, bits/s."`
	PlanTime *Counter `metric:"netupdate_plan_time_ns_total,restore" help:"Simulated planning time spent, ns."`

	ECT          *Histogram    `metric:"netupdate_ect_ns,restore" help:"Event completion time (completion - arrival), ns."`
	QueuingDelay *Histogram    `metric:"netupdate_queuing_delay_ns,restore" help:"Event queuing delay (start - arrival), ns."`
	LinkUtil     *Distribution `metric:"netupdate_link_utilization" help:"Current per-link utilization distribution." bounds:"0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1"`

	FaultsInjected   *Counter `metric:"netupdate_faults_injected_total,restore" help:"Fault injections applied to the run."`
	LinksDown        *Gauge   `metric:"netupdate_links_down" help:"Links currently failed."`
	RepairEvents     *Counter `metric:"netupdate_repair_events_total,restore" help:"Update events minted from link/switch failures."`
	FlowsDisrupted   *Counter `metric:"netupdate_flows_disrupted_total,restore" help:"Placed flows withdrawn by link/switch failures."`
	InstallRetries   *Counter `metric:"netupdate_install_retries_total,restore" help:"Rule-install attempts that timed out and were retried."`
	InstallRollbacks *Counter `metric:"netupdate_install_rollbacks_total,restore" help:"Events rolled back after exhausting the install retry budget."`
}

// NewSimMetrics registers the full engine metric set under the
// "netupdate_" prefix.
func NewSimMetrics(r *Registry) *SimMetrics { return register(r, new(SimMetrics)) }

// IngestMetrics is the live metric set of the daemon's batched ingest
// path: submission outcomes (accepted / rejected-for-overload / accepted
// on a marked retry), the size distribution of admitted batches, and the
// intake bound itself. The queue-depth gauge lives in SimMetrics — the
// engine refreshes it on every arrival and round.
type IngestMetrics struct {
	Accepted *Counter `metric:"netupdate_ingest_accepted_total,restore" help:"Submitted events admitted into the update queue."`
	Rejected *Counter `metric:"netupdate_ingest_rejected_total,restore" help:"Submitted events rejected with an overload response."`
	Retried  *Counter `metric:"netupdate_ingest_retried_total,restore" help:"Events admitted from requests marked as backoff retries."`
	Batches  *Counter `metric:"netupdate_ingest_batches_total,restore" help:"Submit requests that admitted at least one event."`
	// BatchSize has power-of-two buckets 1..4096: single submits through
	// the largest sane wire batches.
	BatchSize *Histogram `metric:"netupdate_ingest_batch_size,restore" help:"Events admitted per submit request." buckets:"1,13"`
	Watermark *Gauge     `metric:"netupdate_ingest_watermark,first" help:"Queue high-watermark past which submissions are rejected."`
	// CodecV2Conns tracks open control connections (all binary v2
	// framing); FramesV2 counts the requests decoded from them.
	CodecV2Conns *Gauge   `metric:"netupdate_ingest_codec_v2_conns" help:"Connections currently speaking the binary v2 framing."`
	FramesV2     *Counter `metric:"netupdate_ingest_frames_v2_total" help:"Requests decoded from the binary v2 codec."`
}

// NewIngestMetrics registers the ingest metric set under the
// "netupdate_ingest_" prefix.
func NewIngestMetrics(r *Registry) *IngestMetrics { return register(r, new(IngestMetrics)) }

// WALMetrics is the live metric set of the write-ahead log and its
// recovery path: append/commit/fsync activity, checkpoint progress, and
// what the last recovery replayed and how long it took.
type WALMetrics struct {
	Appends *Counter `metric:"netupdate_wal_appends_total" help:"Records appended to the write-ahead log."`
	Bytes   *Counter `metric:"netupdate_wal_bytes_total" help:"Bytes written to the write-ahead log (frames included)."`
	Commits *Counter `metric:"netupdate_wal_commits_total" help:"Group commits of appended WAL records."`
	Syncs   *Counter `metric:"netupdate_wal_syncs_total" help:"fsync calls issued by the WAL writer."`

	Checkpoints   *Counter `metric:"netupdate_wal_checkpoints_total" help:"Checkpoints taken (log truncations)."`
	CheckpointSeq *Gauge   `metric:"netupdate_wal_checkpoint_seq,max" help:"Log sequence covered by the newest checkpoint."`
	LastSeq       *Gauge   `metric:"netupdate_wal_last_seq,max" help:"Sequence number of the last appended WAL record."`

	Replayed       *Counter `metric:"netupdate_wal_replayed_records" help:"Input records (events and faults) replayed from the log during the last recovery."`
	ReplayedRounds *Counter `metric:"netupdate_wal_replayed_rounds" help:"Logged scheduling rounds the last recovery applied from the log instead of planning them again."`
	RecoveryMs     *Gauge   `metric:"netupdate_wal_recovery_ms,max" help:"Wall-clock milliseconds the last recovery took."`

	// Info carries the writer's sync policy; its presence marks a
	// registry whose server runs with a WAL.
	Info *Info `metric:"netupdate_wal_info" help:"Write-ahead log settings: the fsync policy."`
}

// NewWALMetrics registers the WAL metric set under the "netupdate_wal_"
// prefix. It is only registered when the daemon runs with a WAL.
func NewWALMetrics(r *Registry) *WALMetrics { return register(r, new(WALMetrics)) }

// ReplMetrics is the live metric set of WAL replication: the server's
// role and term, follower registration and lag on the leader, frame
// traffic in both directions, and the promotion path's failover time.
type ReplMetrics struct {
	// Role is 0 on a leader, 1 on a follower, 2 once deposed.
	Role *Gauge `metric:"netupdate_repl_role,first" help:"Replication role: 0 leader, 1 follower, 2 deposed."`
	Term *Gauge `metric:"netupdate_repl_term,max" help:"Current replication term."`

	// Followers/SyncedFollowers count registered replication sessions on
	// the leader; LagRecords is the worst acked-sequence lag across them
	// (on a follower: the records it holds from the leader and has not
	// folded yet — what a promotion must fold), with
	// Lag (power-of-two buckets 1..65536) the sampled distribution behind
	// the p50/p99 quantile view.
	Followers       *Gauge     `metric:"netupdate_repl_followers" help:"Replication sessions currently registered on this leader."`
	SyncedFollowers *Gauge     `metric:"netupdate_repl_synced_followers" help:"Registered followers that have caught up and gate commits."`
	LagRecords      *Gauge     `metric:"netupdate_repl_lag_records,max" help:"Worst follower lag in WAL records (on a follower, its records not yet folded)."`
	Lag             *Histogram `metric:"netupdate_repl_lag_records_hist" help:"Observed replication lag samples, in WAL records." buckets:"1,17"`

	// RecordsSent counts WAL records streamed to followers;
	// RecordsApplied records folded by this follower; AcksReceived
	// follower durability acks seen by the leader; FollowerDrops
	// sessions the leader dropped for lagging past the ack timeout or
	// overflowing their outbox.
	RecordsSent    *Counter `metric:"netupdate_repl_records_sent_total" help:"WAL records streamed to followers."`
	RecordsApplied *Counter `metric:"netupdate_repl_records_applied_total" help:"Replicated WAL records folded by this follower."`
	AcksReceived   *Counter `metric:"netupdate_repl_acks_total" help:"Follower durability acknowledgements received."`
	HeartbeatsSent *Counter `metric:"netupdate_repl_heartbeats_total" help:"Heartbeat frames sent to followers."`
	FollowerDrops  *Counter `metric:"netupdate_repl_follower_drops_total" help:"Follower sessions dropped for ack timeout or outbox overflow."`

	// Promotions counts role flips to leader; Failover is the drain-to-
	// serving time distribution and FailoverMs the last observed value.
	Promotions *Counter   `metric:"netupdate_repl_promotions_total" help:"Role flips from follower to leader."`
	Failover   *Histogram `metric:"netupdate_repl_failover_ns" help:"Promotion drain-to-serving time, ns."`
	FailoverMs *Gauge     `metric:"netupdate_repl_failover_ms,max" help:"Last promotion's drain-to-serving time, ms."`
}

// NewReplMetrics registers the replication metric set under the
// "netupdate_repl_" prefix. It is only registered when the daemon runs
// with a WAL (replication folds the WAL, so there is nothing to
// replicate without one).
func NewReplMetrics(r *Registry) *ReplMetrics {
	m := register(r, new(ReplMetrics))
	r.NewQuantiles("netupdate_repl_lag_records_q", "Replication lag percentiles, in WAL records.", m.Lag, 50, 99)
	return m
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
	Ingest    *Histogram `metric:"netupdate_latency_submit_ingest_ns" help:"Client submit to server ingest decode, wall ns (requires wire span context)."`
	Admit     *Histogram `metric:"netupdate_latency_ingest_admit_ns" help:"Server ingest decode to queue admission, wall ns."`
	WALCommit *Histogram `metric:"netupdate_latency_wal_commit_ns" help:"Queue admission to durable WAL commit, wall ns."`
	// Queue is admission → execution start (time-in-queue) and Rounds is
	// execution start → completion (time-in-rounds): together they are
	// the overload breakdown that makes watermark backpressure visible.
	Queue  *Histogram `metric:"netupdate_latency_queue_ns" help:"Queue admission to execution start (time-in-queue), wall ns."`
	Rounds *Histogram `metric:"netupdate_latency_rounds_ns" help:"Execution start to completion (time-in-rounds), wall ns."`
	// E2E is the end-to-end latency: client submit (or, without wire
	// context, server ingest) → completion.
	E2E *Histogram `metric:"netupdate_latency_e2e_ns" help:"End-to-end event latency (submit or ingest to completion), wall ns."`
	// WALFsync observes each fsync issued by the WAL writer; under
	// SyncGroup one sample per group commit, under SyncAlways one per
	// append.
	WALFsync *Histogram `metric:"netupdate_wal_fsync_ns" help:"WAL fsync duration, wall ns (per group commit under group policy, per append under always)."`
	// SpansDropped counts span records dropped by the bounded span sink
	// instead of backpressuring the state loop.
	SpansDropped *Counter `metric:"obs_spans_dropped_total" help:"Span records dropped by the bounded span sink instead of backpressuring the state loop."`
}

// NewLatencyMetrics registers the latency pipeline metric set.
func NewLatencyMetrics(r *Registry) *LatencyMetrics {
	m := register(r, new(LatencyMetrics))
	r.NewQuantiles("netupdate_latency_e2e_quantile_ns", "End-to-end event latency percentiles, wall ns.", m.E2E, 50, 95, 99, 99.9)
	return m
}
