// Command updated is the update-controller daemon: it owns a simulated
// data-center network (k-ary Fat-Tree pre-loaded with background traffic)
// and schedules update events submitted over the ctl protocol with the
// configured policy (FIFO, LMTF or P-LMTF).
//
// Usage:
//
//	updated [-addr :7421] [-k 8] [-util 0.6] [-scheduler p-lmtf]
//	        [-alpha 4] [-seed 1] [-telemetry-addr :9090]
//	        [-wal-dir /var/lib/updated/wal] [-wal-sync group]
//	        [-span-out /var/log/updated/spans.jsonl]
//	        [-follow leader:7421] [-promote-after 2s]
//
// The daemon runs in one of three modes; the two that build an engine
// build it through one function (shard.NewWorld, DESIGN.md §16):
//
//   - One engine (the default): the whole fabric, or with -shard-id i
//     -shard-of N slot i of a pod partition, built exactly as the cluster
//     would build it (core capacity split, pod-local fill, strided event
//     IDs, the WAL bound to the slot) to sit behind a -shard-addrs
//     gateway started with the same -k and world flags.
//   - A cluster (-shards N > 1): N such slots in one process behind an
//     in-process gateway that speaks the ordinary ctl protocol, routes
//     each event by the pods its flows touch, aggregates stats, metrics
//     and traces, and admits cross-shard events in two phases against a
//     shared core pool (-cross-pool-frac).
//   - A gateway only (-shard-addrs a1,a2,...) fronting running slots.
//
// With -follow set (requires -wal-dir), the one-engine daemon boots as a
// warm follower: it replicates the leader's WAL over the ctl port, folds
// every committed record into the same deterministic state, and rejects
// writes with a not-leader hint until promoted. Promotion is manual
// (`updatectl repl promote`) or automatic once the leader has been
// unreachable for -promote-after. The follower must be started with the
// same world flags as the leader (scheduler, seed, k, util, watermark,
// tables); the leader refuses mismatched followers at handshake. See
// DESIGN.md §15. -follow, -span-out and -tables are for the plain engine
// only; the sharded modes refuse them.
//
// With -span-out set, every event's stage-level latency span (submit,
// ingest, admit, wal_commit, probed rounds, exec, complete) is written
// as JSON lines; analyze offline with `updatectl trace report`.
//
// With -telemetry-addr set, the daemon also serves live telemetry over
// HTTP: Prometheus metrics on /metrics, expvar on /debug/vars, and
// net/http/pprof on /debug/pprof/.
//
// With -wal-dir set, every admitted event and fault injection is
// recorded in a write-ahead log before its submission is acknowledged;
// restarting the daemon with the same flags and WAL directory recovers
// the exact pre-crash state (checkpoint plus log-suffix replay).
//
// Submit work with cmd/updatectl or any client speaking the binary v2
// framing (see internal/ctl).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	netpkg "net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/obs"
	"netupdate/internal/shard"
	"netupdate/internal/topology"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, sigs))
}

// run is the daemon body; main injects the real stdout and signal
// channel, tests inject buffers and a synthetic stop. The bound control
// address is always printed before the daemon reports ready, so callers
// using "-addr :0" learn the real port.
func run(args []string, stdout io.Writer, stop <-chan os.Signal) int {
	fs := flag.NewFlagSet("updated", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":7421", "listen address")
		k         = fs.Int("k", 8, "fat-tree arity")
		util      = fs.Float64("util", 0.6, "background utilization target")
		schedName = fs.String("scheduler", "p-lmtf", "scheduling policy (see sched.Names)")
		alpha     = fs.Int("alpha", 4, "LMTF/P-LMTF sample size")
		seed      = fs.Int64("seed", 1, "random seed")
		watermark = fs.Int("watermark", ctl.DefaultHighWatermark, "queue high-watermark: submissions past it are rejected with a retry-after hint")
		tables    = fs.Int("tables", -1, "attach per-switch rule tables with this capacity (0 = unlimited, -1 = off)")
		telemetry = fs.String("telemetry-addr", "", "HTTP telemetry address serving /metrics, /debug/vars and /debug/pprof (empty = off)")
		walDir    = fs.String("wal-dir", "", "write-ahead log directory for durable admission and crash recovery (empty = off)")
		walSync   = fs.String("wal-sync", "group", "WAL durability policy: always (fsync per record), group (fsync per commit batch), off (no fsync)")
		walCkpt   = fs.Int("wal-checkpoint-every", ctl.DefaultCheckpointEvery, "records between automatic WAL checkpoints (<0 = never)")
		spanOut   = fs.String("span-out", "", "write per-event stage latency spans to this JSONL file (empty = off); analyze with updatectl trace report")
		follow    = fs.String("follow", "", "run as a warm follower replicating from this leader ctl address (requires -wal-dir)")
		promote   = fs.Duration("promote-after", 0, "auto-promote after the leader has been unreachable this long (0 = manual promotion only; follower mode)")
		maxFoll   = fs.Int("max-followers", 0, "cap on attached replication followers (0 = library default; leader mode)")
		shards    = fs.Int("shards", 1, "partition the control plane into this many pod-sharded engines behind an in-process routing gateway")
		shardAddr = fs.String("shard-addrs", "", "comma-separated remote shard engine ctl addresses; run as a routing gateway fronting them (shard i+1 = i-th address)")
		shardID   = fs.Int("shard-id", 0, "run as one standalone shard engine: this 1-based slot of a -shard-of partition (behind a -shard-addrs gateway)")
		shardOf   = fs.Int("shard-of", 0, "total shard count of the partition this engine is one slot of (requires -shard-id)")
		crossFrac = fs.Float64("cross-pool-frac", 0, "fraction of core-layer capacity reserved for cross-shard events (0 = default 0.25; sharded modes only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*shardID != 0) != (*shardOf != 0) {
		fmt.Fprintln(os.Stderr, "updated: -shard-id and -shard-of must be set together")
		return 2
	}
	if *shardID != 0 && (*shards > 1 || *shardAddr != "") {
		fmt.Fprintln(os.Stderr, "updated: -shard-id is a standalone engine slot; it cannot combine with -shards or -shard-addrs")
		return 2
	}

	cfg := shard.WorldConfig{
		K: *k, Util: *util, Scheduler: *schedName, Alpha: *alpha, Seed: *seed,
		Watermark: *watermark, Shards: *shards, CrossPoolFrac: *crossFrac,
		WALDir: *walDir, WALSync: *walSync, CheckpointEvery: *walCkpt, MaxFollowers: *maxFoll,
		Tables: *tables >= 0, TableCap: max(*tables, 0),
		Follow: *follow, PromoteAfter: *promote,
	}
	// The slot whose rules the flags are held to: the engine's own, or —
	// a cluster builds and a gateway fronts every slot of the partition —
	// the first.
	slot := *shardID
	var shardAddrs []string
	switch {
	case slot != 0:
		cfg.Shards = *shardOf
	case *shardAddr != "":
		shardAddrs = strings.Split(*shardAddr, ",")
		cfg.Shards, slot = len(shardAddrs), 1
	case *shards > 1:
		slot = 1
	}
	// Validated with a stand-in sink: the span file is created only for a
	// configuration that is accepted.
	check := cfg
	if *spanOut != "" {
		check.SpanSink = obs.NilSink{}
	}
	if err := check.Validate(slot); err != nil {
		return fail(err)
	}

	switch {
	case shardAddrs != nil:
		return runGateway(stdout, stop, *addr, *telemetry, *k, *crossFrac, shardAddrs)
	case *shards > 1:
		return runShardedCluster(stdout, stop, *addr, *telemetry, cfg)
	}
	return runEngine(stdout, stop, *addr, *telemetry, cfg, *shardID, *spanOut)
}

// fail reports why a world could not be stood up. A configuration only
// the operator can fix is a usage error, in every mode.
func fail(err error) int {
	fmt.Fprintf(os.Stderr, "updated: %v\n", err)
	if errors.Is(err, shard.ErrConfig) {
		return 2
	}
	return 1
}

// reportWorld prints what standing w up found and did; a shard's lines
// carry its slot.
func reportWorld(stdout io.Writer, w *shard.World, util float64) {
	pre := "updated: "
	if w.ID != 0 {
		pre = fmt.Sprintf("updated: shard %d: ", w.ID)
	}
	switch {
	case w.Restored:
		fmt.Fprintf(stdout, "%sbackground fill skipped, restoring from checkpoint\n", pre)
	case util > 0:
		fmt.Fprintf(stdout, "%sbackground %d flows, utilization %.3f\n", pre, w.BgFlows, w.BgUtil)
	}
	if rec := w.Recovery; rec != nil && rec.Recovered {
		fmt.Fprintf(stdout, "%srecovered from WAL: checkpoint seq %d, %d records replayed, last seq %d (%v)\n",
			pre, rec.CheckpointSeq, rec.ReplayedRecords, rec.LastSeq, rec.Elapsed.Round(time.Millisecond))
	}
}

// runEngine is the one-engine mode: the unsharded daemon (slot 0), or
// with -shard-id/-shard-of one slot of a pod partition, built exactly
// as the in-process cluster would build it and meant to sit behind a
// -shard-addrs gateway started with the same -k.
func runEngine(stdout io.Writer, stop <-chan os.Signal, addr, telemetry string, cfg shard.WorldConfig, slot int, spanOut string) int {
	if spanOut != "" {
		f, err := os.Create(spanOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "updated: span-out: %v\n", err)
			return 1
		}
		// Registered before the server exists, so it runs after the
		// server's Close has drained the async span sink into the file.
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "updated: span-out close: %v\n", err)
			}
		}()
		cfg.SpanSink = obs.NewJSONLSink(f)
		fmt.Fprintf(stdout, "updated: stage spans to %s\n", spanOut)
	}
	w, err := shard.NewWorld(cfg, slot)
	if err != nil {
		return fail(err)
	}
	if cfg.Tables {
		fmt.Fprintf(stdout, "updated: two-phase rule tables attached (capacity %d per switch)\n", cfg.TableCap)
	}
	reportWorld(stdout, w, cfg.Util)
	if cfg.WALDir != "" {
		dir := cfg.WALDir
		if slot != 0 {
			dir = fmt.Sprintf("%s/shard-%d", dir, slot)
		}
		fmt.Fprintf(stdout, "updated: wal in %s (sync=%s)\n", dir, cfg.WALSync)
	}
	switch {
	case cfg.Follow == "":
	case cfg.PromoteAfter > 0:
		fmt.Fprintf(stdout, "updated: following %s (auto-promote after %v)\n", cfg.Follow, cfg.PromoteAfter)
	default:
		fmt.Fprintf(stdout, "updated: following %s (manual promotion only)\n", cfg.Follow)
	}

	return serveCtl(stdout, stop, addr, telemetry, obs.Handler(w.Server.Registry(), w.Server.RefreshGauges), w.Server, func(l netpkg.Listener) {
		if slot != 0 {
			fmt.Fprintf(stdout, "updated: engine shard %d of %d on %s, owns pods %v (k=%d, %s scheduler)\n",
				slot, cfg.Shards, l.Addr(), w.Pods, cfg.K, cfg.Scheduler)
			return
		}
		policy := cfg.Scheduler
		if st, err := w.Server.Stats(); err == nil {
			policy = st.Scheduler // the resolved name, e.g. "lmtf(a=4)"
		}
		fmt.Fprintf(stdout, "updated: %s scheduler on %s (k=%d, %d hosts)\n",
			policy, l.Addr(), cfg.K, w.FT.NumHosts())
	})
}

// runShardedCluster is the -shards N mode: one process hosting N
// pod-partitioned engines behind an in-process routing gateway that
// speaks the ordinary ctl protocol on addr. Telemetry serves the
// gateway's registry on /metrics and each engine's on
// /metrics/shard/<id>.
func runShardedCluster(stdout io.Writer, stop <-chan os.Signal, addr, telemetry string, cfg shard.WorldConfig) int {
	cl, err := shard.NewCluster(cfg)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "updated: cluster close: %v\n", err)
		}
	}()
	gw, err := shard.NewGateway(cl.Part, cl.Ref.Graph(), cl.Cross, cl.Backends())
	if err != nil {
		fmt.Fprintf(os.Stderr, "updated: %v\n", err)
		return 1
	}
	for _, w := range cl.Worlds {
		reportWorld(stdout, w, cfg.Util)
	}

	mux := http.NewServeMux()
	mux.Handle("/", obs.Handler(gw.Registry(), nil))
	for _, w := range cl.Worlds {
		srv := w.Server
		mux.HandleFunc(fmt.Sprintf("/metrics/shard/%d", w.ID), func(rw http.ResponseWriter, _ *http.Request) {
			srv.RefreshGauges()
			rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			srv.Registry().WritePrometheus(rw)
		})
	}
	if cfg.WALDir != "" {
		fmt.Fprintf(stdout, "updated: per-shard wal under %s\n", cfg.WALDir)
	}
	return serveCtl(stdout, stop, addr, telemetry, mux, gw, func(l netpkg.Listener) {
		for _, w := range cl.Worlds {
			fmt.Fprintf(stdout, "updated: shard %d owns pods %v\n", w.ID, cl.Part.PodsOf(w.ID))
		}
		fmt.Fprintf(stdout, "updated: gateway for %d shards on %s (k=%d, %s scheduler)\n",
			len(cl.Worlds), l.Addr(), cfg.K, cfg.Scheduler)
	})
}

// runGateway is the -shard-addrs mode: a routing gateway fronting
// already-running remote shard engines (each an `updated` started with
// matching world flags; shard i+1 is the i-th address).
func runGateway(stdout io.Writer, stop <-chan os.Signal, addr, telemetry string, k int, crossFrac float64, shardAddrs []string) int {
	ref, err := topology.NewFatTree(k, topology.Gbps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "updated: %v\n", err)
		return 1
	}
	part, err := shard.NewPartition(ref, len(shardAddrs))
	if err != nil {
		fmt.Fprintf(os.Stderr, "updated: %v\n", err)
		return 1
	}
	frac, err := shard.ResolveCrossPoolFrac(len(shardAddrs), crossFrac)
	if err != nil {
		fmt.Fprintf(os.Stderr, "updated: %v\n", err)
		return 1
	}

	backends := make([]ctl.Backend, len(shardAddrs))
	closeBackends := func() {
		for _, b := range backends {
			if b != nil {
				_ = b.Close()
			}
		}
	}
	for i, a := range shardAddrs {
		a = strings.TrimSpace(a)
		c, err := ctl.DialBinary(a)
		if err != nil {
			fmt.Fprintf(os.Stderr, "updated: shard %d (%s): %v\n", i+1, a, err)
			closeBackends()
			return 1
		}
		backends[i] = c
		feats, err := c.Features()
		if err != nil {
			fmt.Fprintf(os.Stderr, "updated: shard %d (%s): ping: %v\n", i+1, a, err)
			closeBackends()
			return 1
		}
		for _, f := range feats {
			if f == ctl.FeatureShardVerdicts {
				c.EnableShardInfo()
			}
		}
		// Identity check: an engine booted with -shard-id/-shard-of
		// advertises its slot in its metrics' shard info. Wiring slot 2's
		// engine as the first address would silently misroute every event,
		// so a declared identity must match its position; an engine with
		// no identity (plain `updated`) still works, but mints unstrided
		// IDs, so cross-shard status routing cannot find its events. The
		// gateway answers stats by merging every engine's metrics, so an
		// engine too old to serve them is refused here, not at the first
		// stats read.
		resp := c.Do(ctl.Request{Op: ctl.OpMetrics})
		if !resp.OK {
			fmt.Fprintf(os.Stderr, "updated: shard %d (%s): op %q: %s (the gateway needs engines that answer it)\n", i+1, a, ctl.OpMetrics, resp.Error)
			closeBackends()
			return 1
		}
		st := ctl.StatsOf(resp.Metrics)
		if st.ShardID != 0 && (st.ShardID != i+1 || st.Shards != len(shardAddrs)) {
			fmt.Fprintf(os.Stderr, "updated: shard %d (%s): engine identifies as shard %d of %d, want %d of %d — shard-addrs order must match engine slots\n",
				i+1, a, st.ShardID, st.Shards, i+1, len(shardAddrs))
			closeBackends()
			return 1
		}
		if st.ShardID == 0 && len(shardAddrs) > 1 {
			fmt.Fprintf(stdout, "updated: warning: shard %d engine at %s has no shard identity; its event IDs will not stride, so status lookups may miss (boot engines with -shard-id/-shard-of)\n", i+1, a)
		}
	}
	defer closeBackends()

	gw, err := shard.NewGateway(part, ref.Graph(), shard.CrossPoolFor(ref, part, frac), backends)
	if err != nil {
		fmt.Fprintf(os.Stderr, "updated: %v\n", err)
		return 1
	}
	return serveCtl(stdout, stop, addr, telemetry, obs.Handler(gw.Registry(), nil), gw, func(l netpkg.Listener) {
		fmt.Fprintf(stdout, "updated: gateway for %d remote shards on %s (k=%d)\n",
			len(shardAddrs), l.Addr(), k)
	})
}

// ctlService is the serve surface shared by the engine server and the
// shard gateway.
type ctlService interface {
	Serve(netpkg.Listener) error
	Close() error
}

// startTelemetry binds addr synchronously — so a bad address fails at
// startup, not in a goroutine after the daemon already reported itself
// healthy — and serves h until the returned shutdown func runs.
func startTelemetry(stdout io.Writer, addr string, h http.Handler) (func(), error) {
	l, err := netpkg.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	telemetrySrv := &http.Server{Handler: h}
	go func() {
		if err := telemetrySrv.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "updated: telemetry: %v\n", err)
		}
	}()
	fmt.Fprintf(stdout, "updated: telemetry on http://%s/metrics\n", l.Addr())
	return func() {
		if err := telemetrySrv.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "updated: telemetry close: %v\n", err)
		}
	}, nil
}

// serveCtl binds addr before serving — so a taken address fails fast
// and the printed address is the real one even for ":0" — then serves
// s until a stop signal or a serve error, with metrics on the telemetry
// address when one is set.
func serveCtl(stdout io.Writer, stop <-chan os.Signal, addr, telemetry string, metrics http.Handler, s ctlService, banner func(l netpkg.Listener)) int {
	if telemetry != "" {
		stopTelemetry, err := startTelemetry(stdout, telemetry, metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "updated: telemetry: %v\n", err)
			return 1
		}
		defer stopTelemetry()
	}
	l, err := netpkg.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "updated: listen: %v\n", err)
		return 1
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	fmt.Fprintf(stdout, "updated: listening on %s\n", l.Addr())
	if banner != nil {
		banner(l)
	}

	select {
	case sig := <-stop:
		fmt.Fprintf(stdout, "updated: %v, shutting down\n", sig)
		if err := s.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "updated: close: %v\n", err)
			return 1
		}
		if err := <-serveErr; err != nil && !errors.Is(err, ctl.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "updated: %v\n", err)
			return 1
		}
		return 0
	case err := <-serveErr:
		if err != nil && !errors.Is(err, ctl.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "updated: %v\n", err)
			return 1
		}
		return 0
	}
}
