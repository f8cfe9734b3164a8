// Command loadgen is an open-loop load generator for the update
// controller (cmd/updated): it offers update events at a configured
// Poisson rate regardless of how fast the server absorbs them, submits
// them in batches over concurrent connections, and reports sustained
// throughput and the overload-rejection rate.
//
// Usage:
//
//	loadgen -addr host:7421 -rate 500 -duration 10s [-conns 4] [-batch 16]
//	loadgen -selfhost -rate 2000 -duration 5s -watermark 64 -json
//	loadgen -selfhost -shards 4 -k 8 -rate 2000 -duration 5s  # sharded control plane
//
// With -addr, events target an already-running daemon; host endpoints
// are discovered from its snapshot. With -selfhost, loadgen spins up an
// in-process controller (same construction as cmd/updated) and drives
// it over loopback — handy for smoke tests. (The durable, replicated and
// recovering deployments are measured by bench/, `bash bench/run.sh`.)
//
// Being open-loop, the arrival process never waits for the server: if
// every connection is busy when a batch becomes due, the batch is shed
// client-side and counted as dropped rather than delaying later
// arrivals. With -retries > 0, overload-rejected events are resubmitted
// with capped exponential backoff honoring the server's retry-after
// hint; with -retries 0 a rejection is final and counts toward the
// rejection rate.
//
// Every connection speaks the binary v2 framing. Each submitting
// connection is one ctl.Client shared by -pipeline submitters, so up to
// that many submit-batch requests ride the connection at once, which is
// what sustains wire-speed offered rates. A request that fails as a
// whole (transport error, not-leader) counts its events as failed, apart
// from per-event overload rejections. The summary reports
// client-observed submit latency (write to response) percentiles.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	netpkg "net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/obs"
	"netupdate/internal/shard"
	"netupdate/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// summary is the generator's end-of-run report, printed as JSON with
// -json or as text otherwise.
type summary struct {
	RateTarget  float64 `json:"rate_target"`
	DurationSec float64 `json:"duration_sec"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	// Offered = events the arrival process generated; Submitted = those
	// that reached the wire (offered minus dropped); Accepted/Rejected/
	// Invalid are per-event outcomes; Failed were in requests that failed
	// as a whole; Dropped were shed client-side.
	Offered   int64 `json:"offered"`
	Submitted int64 `json:"submitted"`
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Invalid   int64 `json:"invalid"`
	Failed    int64 `json:"failed"`
	Dropped   int64 `json:"dropped"`
	// AcceptedPerSec is the sustained ingest rate; RejectionRate is
	// rejected over submitted.
	AcceptedPerSec float64 `json:"accepted_per_sec"`
	RejectionRate  float64 `json:"rejection_rate"`
	// Pipelined reports whether requests were pipelined.
	Pipelined bool `json:"pipelined"`
	// SubmitP50Ms/SubmitP99Ms are client-observed submit-batch latency
	// percentiles (request written to response received) in
	// milliseconds; 0 when no batch completed.
	SubmitP50Ms float64 `json:"submit_p50_ms"`
	SubmitP99Ms float64 `json:"submit_p99_ms"`
	// Latency is the server-side stage-level latency breakdown (span
	// pipeline percentiles), present when the post-run stats call
	// succeeded.
	Latency *latencySummary `json:"latency,omitempty"`
	// Server echoes the controller's stats after the run (ingest
	// counters, queue depth, scheduler) when the stats call succeeded.
	Server *ctl.Stats `json:"server,omitempty"`
}

// latencySummary is the end-to-end latency block of the report: the
// submit→completion percentiles plus the overload breakdown (time in
// queue vs time in scheduling rounds), all in wall-clock milliseconds.
type latencySummary struct {
	E2EP50Ms  float64 `json:"e2e_p50_ms"`
	E2EP95Ms  float64 `json:"e2e_p95_ms"`
	E2EP99Ms  float64 `json:"e2e_p99_ms"`
	E2EP999Ms float64 `json:"e2e_p999_ms"`
	// Overload breakdown at the tail: where the p99 event spent its time.
	QueueP50Ms  float64 `json:"queue_p50_ms"`
	QueueP99Ms  float64 `json:"queue_p99_ms"`
	RoundsP50Ms float64 `json:"rounds_p50_ms"`
	RoundsP99Ms float64 `json:"rounds_p99_ms"`
	// SpansDropped counts stage records the server shed when the span
	// sink's ring overflowed; SpanFile is the JSONL span file written
	// (selfhost -spans only).
	SpansDropped int64  `json:"spans_dropped"`
	SpanFile     string `json:"span_file,omitempty"`
}

// ms converts nanoseconds to float milliseconds.
func ms(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "", "controller address (empty with -selfhost)")
		selfhost = fs.Bool("selfhost", false, "run an in-process controller and drive it over loopback")
		rate     = fs.Float64("rate", 100, "offered load, events/sec (Poisson arrivals)")
		duration = fs.Duration("duration", 5*time.Second, "how long to offer load")
		conns    = fs.Int("conns", 4, "concurrent submitting connections")
		batchSz  = fs.Int("batch", 16, "events per submit-batch request")
		retries  = fs.Int("retries", 0, "max submit attempts per batch on overload (0 or 1 = no retry)")
		pipeline = fs.Int("pipeline", 32, "submit-batch requests in flight per connection (0 or 1 = synchronous)")
		seed     = fs.Int64("seed", 1, "random seed for arrivals and event specs")
		minFlows = fs.Int("min-flows", 1, "flows per event, lower bound")
		maxFlows = fs.Int("max-flows", 4, "flows per event, upper bound")
		demand   = fs.Int64("demand-mbps", 5, "per-flow demand in Mbps")
		jsonOut  = fs.Bool("json", false, "print the summary as JSON")
		spanFile = fs.String("spans", "", "selfhost: write stage-level latency spans (JSONL) to this file and attach span contexts to submissions")
		origin   = fs.Uint("origin", 1, "span origin identity carried in submitted trace contexts (16-bit)")

		// Selfhost controller shape (mirrors cmd/updated).
		schedName = fs.String("scheduler", "p-lmtf", "selfhost: scheduling policy (see sched.Names)")
		alpha     = fs.Int("alpha", 4, "selfhost: LMTF/P-LMTF sample size")
		k         = fs.Int("k", 4, "selfhost: fat-tree arity")
		util      = fs.Float64("util", 0.3, "selfhost: background utilization target")
		watermark = fs.Int("watermark", ctl.DefaultHighWatermark, "selfhost: queue high-watermark")
		shards    = fs.Int("shards", 1, "selfhost: partition the controller into this many pod-sharded engines behind an in-process gateway")
		crossFrac = fs.Float64("cross-pool-frac", 0, "selfhost: core capacity fraction reserved for cross-shard events (0 = default 0.25; -shards > 1 only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *shards > 1 && !*selfhost {
		fmt.Fprintln(os.Stderr, "loadgen: -shards requires -selfhost (point -addr at a sharded daemon instead)")
		return 2
	}
	if *shards > 1 && *spanFile != "" {
		fmt.Fprintln(os.Stderr, "loadgen: -spans is per-engine; not supported with -shards")
		return 2
	}
	if (*addr == "") == !*selfhost {
		fmt.Fprintln(os.Stderr, "loadgen: need exactly one of -addr or -selfhost")
		return 2
	}
	if *rate <= 0 || *batchSz < 1 || *conns < 1 || *minFlows < 1 || *maxFlows < *minFlows {
		fmt.Fprintln(os.Stderr, "loadgen: bad load shape (rate/batch/conns/flows)")
		return 2
	}
	if *spanFile != "" && !*selfhost {
		fmt.Fprintln(os.Stderr, "loadgen: -spans requires -selfhost (the span file is written by the in-process controller)")
		return 2
	}
	if *origin > math.MaxUint16 {
		fmt.Fprintf(os.Stderr, "loadgen: -origin %d exceeds 16 bits\n", *origin)
		return 2
	}
	spanOrigin := uint16(*origin)
	spansOn := *spanFile != ""

	target := *addr
	if *selfhost {
		var spanSink obs.Sink
		if spansOn {
			f, err := os.Create(*spanFile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: span file: %v\n", err)
				return 1
			}
			// LIFO defers: the server closes (draining its async span sink)
			// before the file does.
			defer func() {
				if err := f.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "loadgen: span file close: %v\n", err)
				}
			}()
			spanSink = obs.NewJSONLSink(f)
		}
		stopSelfhost, laddr, err := startSelfhost(shard.WorldConfig{
			K: *k, Util: *util, Scheduler: *schedName, Alpha: *alpha, Seed: *seed,
			Watermark: *watermark, Shards: *shards, CrossPoolFrac: *crossFrac, SpanSink: spanSink,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: selfhost: %v\n", err)
			if errors.Is(err, shard.ErrConfig) {
				return 2
			}
			return 1
		}
		defer func() {
			if err := stopSelfhost(); err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: selfhost close: %v\n", err)
			}
		}()
		target = laddr
		fmt.Fprintf(os.Stderr, "loadgen: selfhost controller on %s\n", laddr)
	}

	// One control connection serves host discovery, the span-feature
	// probe and the end-of-run stats.
	ctrl, err := ctl.DialBinary(target)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 1
	}
	defer ctrl.Close()
	hosts, err := discoverHosts(ctrl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 1
	}

	// Span contexts ride a flag-gated binary extension that pre-span
	// servers reject, so negotiate before any worker enables them.
	if spansOn {
		if err := probeSpanFeature(ctrl); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			return 1
		}
	}

	clients := make([]*ctl.Client, *conns)
	for i := range clients {
		c, err := ctl.DialBinary(target)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			return 1
		}
		defer c.Close()
		if spansOn {
			c.EnableSpans(spanOrigin)
		}
		clients[i] = c
	}
	submitters := max(*pipeline, 1)
	var n counts
	lat := &latencyRecorder{}
	work := make(chan []ctl.EventSpec, *conns*4)
	var wg sync.WaitGroup
	for _, c := range clients {
		for i := 0; i < submitters; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for batch := range work {
					t0 := time.Now()
					submitBatch(c, batch, *retries, &n)
					lat.add(time.Since(t0))
				}
			}()
		}
	}

	// Open-loop arrival process: exponential gaps at the target rate,
	// scheduled against absolute time so slow submissions never stretch
	// the offered load.
	rng := rand.New(rand.NewSource(*seed))
	var offered int64
	start := time.Now()
	next := start
	var pending []ctl.EventSpec
	flush := func() {
		if len(pending) == 0 {
			return
		}
		batch := make([]ctl.EventSpec, len(pending))
		copy(batch, pending)
		pending = pending[:0]
		select {
		case work <- batch:
		default:
			n.dropped.Add(int64(len(batch)))
		}
	}
	for {
		next = next.Add(time.Duration(rng.ExpFloat64() / *rate * float64(time.Second)))
		if next.Sub(start) > *duration {
			break
		}
		time.Sleep(time.Until(next))
		offered++
		pending = append(pending, randomEvent(rng, hosts, *minFlows, *maxFlows, *demand))
		if len(pending) >= *batchSz {
			flush()
		}
	}
	flush()
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	droppedTotal := n.dropped.Load()
	sum := summary{
		RateTarget:  *rate,
		DurationSec: duration.Seconds(),
		ElapsedSec:  elapsed.Seconds(),
		Offered:     offered,
		Submitted:   offered - droppedTotal,
		Accepted:    n.accepted.Load(),
		Rejected:    n.rejected.Load(),
		Invalid:     n.invalid.Load(),
		Failed:      n.failed.Load(),
		Dropped:     droppedTotal,
	}
	if elapsed > 0 {
		sum.AcceptedPerSec = float64(sum.Accepted) / elapsed.Seconds()
	}
	if sum.Submitted > 0 {
		sum.RejectionRate = float64(sum.Rejected) / float64(sum.Submitted)
	}
	sum.Pipelined = submitters > 1
	p50, p99 := lat.percentiles()
	sum.SubmitP50Ms = float64(p50) / float64(time.Millisecond)
	sum.SubmitP99Ms = float64(p99) / float64(time.Millisecond)
	if stats, err := ctrl.Stats(); err == nil {
		sum.Server = &stats
		sum.Latency = &latencySummary{
			E2EP50Ms:     ms(stats.LatencyE2EP50Ns),
			E2EP95Ms:     ms(stats.LatencyE2EP95Ns),
			E2EP99Ms:     ms(stats.LatencyE2EP99Ns),
			E2EP999Ms:    ms(stats.LatencyE2EP999Ns),
			QueueP50Ms:   ms(stats.LatencyQueueP50Ns),
			QueueP99Ms:   ms(stats.LatencyQueueP99Ns),
			RoundsP50Ms:  ms(stats.LatencyRoundsP50Ns),
			RoundsP99Ms:  ms(stats.LatencyRoundsP99Ns),
			SpansDropped: stats.SpansDropped,
			SpanFile:     *spanFile,
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			return 1
		}
	} else {
		fmt.Fprintf(stdout, "offered %d events in %.2fs (target %.0f/s)\n",
			sum.Offered, sum.ElapsedSec, sum.RateTarget)
		fmt.Fprintf(stdout, "accepted %d (%.1f/s), rejected %d (%.1f%%), invalid %d, failed %d, dropped %d\n",
			sum.Accepted, sum.AcceptedPerSec, sum.Rejected, 100*sum.RejectionRate,
			sum.Invalid, sum.Failed, sum.Dropped)
		fmt.Fprintf(stdout, "submit latency%s p50 %.2fms p99 %.2fms\n",
			map[bool]string{true: " (pipelined)", false: ""}[sum.Pipelined],
			sum.SubmitP50Ms, sum.SubmitP99Ms)
		if s := sum.Server; s != nil {
			fmt.Fprintf(stdout, "server: %s scheduler, %d done, %d queued, ingest %d/%d/%d accepted/rejected/retried (watermark %d)\n",
				s.Scheduler, s.EventsDone, s.EventsQueued,
				s.IngestAccepted, s.IngestRejected, s.IngestRetried, s.IngestWatermark)
			if s.Shards > 1 {
				fmt.Fprintf(stdout, "sharded: %d shards, cross-shard %d admitted / %d pool-rejected\n",
					s.Shards, s.CrossEvents, s.CrossRejected)
			}
		}
		if lb := sum.Latency; lb != nil {
			fmt.Fprintf(stdout, "e2e latency p50 %.2fms p95 %.2fms p99 %.2fms p99.9 %.2fms (queue p99 %.2fms, rounds p99 %.2fms, %d spans dropped)\n",
				lb.E2EP50Ms, lb.E2EP95Ms, lb.E2EP99Ms, lb.E2EP999Ms,
				lb.QueueP99Ms, lb.RoundsP99Ms, lb.SpansDropped)
		}
	}
	if sum.Accepted == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: no events accepted")
		return 1
	}
	return 0
}

// counts are the run's per-event outcome counters, shared by every
// submitter.
type counts struct {
	accepted, rejected, invalid, failed, dropped atomic.Int64
}

// submitBatch sends one batch, retrying overload rejections when asked,
// and folds the per-event outcomes into n. A request that fails as a
// whole counts its unaccepted events once, as failed.
func submitBatch(c *ctl.Client, batch []ctl.EventSpec, retries int, n *counts) {
	if retries > 1 {
		ids, err := c.SubmitBatchRetry(batch, retries)
		var acc int64
		for _, id := range ids {
			if id != 0 {
				acc++
			}
		}
		n.accepted.Add(acc)
		rest := int64(len(batch)) - acc
		switch {
		case rest == 0:
		case errors.Is(err, ctl.ErrOverloaded):
			n.rejected.Add(rest)
		case errors.Is(err, ctl.ErrBadRequest):
			n.invalid.Add(rest)
		default:
			n.failed.Add(rest)
		}
		return
	}
	verdicts, _, err := c.SubmitBatch(batch)
	if err != nil {
		n.failed.Add(int64(len(batch)))
		return
	}
	for _, v := range verdicts {
		switch {
		case v.OK:
			n.accepted.Add(1)
		case v.Overloaded:
			n.rejected.Add(1)
		default:
			n.invalid.Add(1)
		}
	}
}

// randomEvent draws an update event between distinct hosts.
func randomEvent(rng *rand.Rand, hosts []int, minFlows, maxFlows int, demandMbps int64) ctl.EventSpec {
	n := minFlows
	if maxFlows > minFlows {
		n += rng.Intn(maxFlows - minFlows + 1)
	}
	spec := ctl.EventSpec{Kind: "loadgen"}
	for i := 0; i < n; i++ {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		spec.Flows = append(spec.Flows, ctl.FlowSpec{
			Src: src, Dst: dst, DemandBps: demandMbps * 1e6,
		})
	}
	return spec
}

// discoverHosts fetches the controller's snapshot and returns its host
// node IDs, so the generator works against any topology without flags.
func discoverHosts(c *ctl.Client) ([]int, error) {
	snap, err := c.Snapshot()
	if err != nil {
		return nil, err
	}
	var hosts []int
	for i, n := range snap.Nodes {
		if topology.NodeKind(n.Kind) == topology.KindHost {
			hosts = append(hosts, i)
		}
	}
	if len(hosts) < 2 {
		return nil, fmt.Errorf("topology has %d hosts, need at least 2", len(hosts))
	}
	return hosts, nil
}

// startSelfhost stands up an in-process, memory-only controller on an
// ephemeral loopback port — the engine itself, or with cfg.Shards > 1 the
// cluster-behind-a-gateway of `updated -shards N` — and returns what
// stops it (the wire before the engines) and its address.
func startSelfhost(cfg shard.WorldConfig) (func() error, string, error) {
	var stop func() error
	var svc interface {
		Serve(netpkg.Listener) error
		Close() error
	}
	if cfg.Shards > 1 {
		cl, err := shard.NewCluster(cfg)
		if err != nil {
			return nil, "", err
		}
		gw, err := shard.NewGateway(cl.Part, cl.Ref.Graph(), cl.Cross, cl.Backends())
		if err != nil {
			_ = cl.Close()
			return nil, "", err
		}
		svc = gw
		stop = func() error { return errors.Join(gw.Close(), cl.Close()) }
	} else {
		w, err := shard.NewWorld(cfg, 0)
		if err != nil {
			return nil, "", err
		}
		svc, stop = w.Server, w.Server.Close
	}
	l, err := netpkg.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = stop()
		return nil, "", err
	}
	go func() {
		if err := svc.Serve(l); err != nil && !errors.Is(err, ctl.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "loadgen: selfhost serve: %v\n", err)
		}
	}()
	return stop, l.Addr().String(), nil
}

// latencyRecorder accumulates client-observed submit latencies across
// workers for end-of-run percentiles.
type latencyRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
}

func (l *latencyRecorder) add(d time.Duration) {
	l.mu.Lock()
	l.samples = append(l.samples, d)
	l.mu.Unlock()
}

// percentiles returns the nearest-rank p50 and p99, 0 when empty.
func (l *latencyRecorder) percentiles() (p50, p99 time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) == 0 {
		return 0, 0
	}
	s := make([]time.Duration, len(l.samples))
	copy(s, l.samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := func(p float64) time.Duration {
		i := int(math.Ceil(p*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	return rank(0.50), rank(0.99)
}

// probeSpanFeature checks the controller advertises span-context
// support before any connection enables the binary span extension.
func probeSpanFeature(c *ctl.Client) error {
	feats, err := c.Features()
	if err != nil {
		return fmt.Errorf("feature probe: %w", err)
	}
	for _, f := range feats {
		if f == ctl.FeatureSpanContext {
			return nil
		}
	}
	return fmt.Errorf("server does not support %s (features: %v); run without -spans", ctl.FeatureSpanContext, feats)
}
