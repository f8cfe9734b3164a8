package main

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/topology"
)

// gatewayProbes is how many in-process submit requests the traced pass
// sends through Gateway.Handle to split routing from backend time.
const gatewayProbes = 100

// One-shot phases repeat at least their minimum number of times and
// until they have used their time budget (at most maxReps times), and
// report the median: the shorter a set-up or recovery is, the more
// repetitions steady it.
const (
	minSetups     = 3
	minRecoveries = 2
	maxReps       = 8
	setupBudget   = 3 * time.Second
	recoverBudget = 4 * time.Second
)

// runConfig is one pass over one workload.
type runConfig struct {
	w     *workload
	seed  int64
	paced time.Duration // length of the open-loop phase
	tmp   string        // parent of the pass's WAL directories
	// short runs one set-up, one drain round and one recovery instead of
	// the workload's full shape: the traced pass and the smoke test.
	short bool
	// tr, when set, turns spans and decorators on. End-to-end numbers
	// never come from a traced pass.
	tr *tracer
}

// measures collects metric values by name; units live in the tables of
// metrics.go.
type measures map[string]float64

// runResult is what one pass yields.
type runResult struct {
	m         measures
	attempted int64
	failed    int64
	// failures are self-check violations; any makes the run incorrect.
	failures []string
	// notes are the raw repetitions behind the reported statistics, for
	// the reader of the log.
	notes  []string
	phases map[string]float64 // per-phase wall seconds
}

func (r *runResult) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *runResult) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// ops counts client operations across goroutines.
type ops struct{ attempted, failed atomic.Int64 }

// fingerprint is the deterministic state a set-up must reproduce.
type fingerprint struct {
	bgFlows     int
	bgUtil      float64
	eventsDone  int
	flowsPlaced int
	clockNs     int64
	costBps     int64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// submitAll sends events as ONE SubmitBatch — handleBatch admits a
// request atomically, so everything the engine then does is a pure
// function of the inputs — and requires every verdict to be OK.
func submitAll(c *ctl.Client, events []ctl.EventSpec, o *ops) error {
	o.attempted.Add(int64(len(events)))
	verdicts, _, err := c.SubmitBatch(events)
	if err != nil {
		o.failed.Add(int64(len(events)))
		return err
	}
	for i, v := range verdicts {
		if !v.OK {
			o.failed.Add(1)
			return fmt.Errorf("event %d of batch refused: %s", i, v.Error)
		}
	}
	return nil
}

// pass is the state one run of the five phases carries along.
type pass struct {
	cfg runConfig
	w   *workload
	res *runResult
	o   ops
	h   hooks

	// Shape of the pass: the workload's, or 1/1/1 when short.
	setups, recoveries, reps int // minimum repetitions and their cap
	rounds, ckptRounds       int
	probeReps                int // speed-probe passes per reading

	events []ctl.EventSpec // generated and not yet offered
	d      *deployment
	dir    string    // the kept deployment's WAL directories
	done   int       // events the engines have completed
	before ctl.Stats // after the warm batch
	after  ctl.Stats // after the drain
}

func (p *pass) take(n int) []ctl.EventSpec {
	out := p.events[:n]
	p.events = p.events[n:]
	return out
}

// runWorkload runs the five phases of one pass. A returned error means
// the harness could not complete the pass; check violations are
// reported in the result instead.
func runWorkload(cfg runConfig) (*runResult, error) {
	w := cfg.w
	p := &pass{
		cfg: cfg, w: w, res: &runResult{m: measures{}, phases: map[string]float64{}},
		setups: minSetups, recoveries: minRecoveries, reps: maxReps,
		rounds: w.rounds, ckptRounds: w.ckptRounds, probeReps: 10,
	}
	if cfg.tr != nil {
		p.h = cfg.tr.hooks()
	}
	if cfg.short {
		p.setups, p.recoveries, p.reps, p.rounds, p.ckptRounds, p.probeReps = 1, 1, 1, 1, 1, 3
	}
	res := p.res

	// Inputs are generated before any timer starts.
	ft, err := topology.NewFatTree(fatTreeK, topology.Gbps)
	if err != nil {
		return nil, err
	}
	dues := pacedSchedule(cfg.seed+2000, w, cfg.paced)
	extra := 1 // the failover write
	if cfg.tr != nil && w.shards > 1 {
		extra = gatewayProbes * w.group
	}
	if p.events, err = w.gen(cfg.seed+1000, ft, w.warm+p.rounds*w.batch+len(dues)*w.group+extra); err != nil {
		return nil, err
	}
	defer func() {
		if p.d != nil {
			_ = p.d.close() // error path: the pass already failed
		}
		_ = os.RemoveAll(p.dir)
	}()

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	probe := newSpeedProbe(p.probeReps)
	speed := probe.read()
	// timed runs one phase between two readings of the machine's speed
	// and returns the factor its timings are divided by.
	timed := func(name string, phase func() error) (float64, error) {
		t0 := time.Now()
		if err := phase(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		res.phases[name] = time.Since(t0).Seconds()
		next := probe.read()
		f := speedFactor(speed, next)
		speed = next
		res.m["bench.speed_"+name] = f
		return f, nil
	}

	f, err := timed("setup", p.setup)
	if err != nil {
		return nil, err
	}
	res.m["setup_s"] /= f
	if f, err = timed("drain", p.drain); err != nil {
		return nil, err
	}
	res.m["drain_events_per_s"] *= f
	if f, err = timed("recover", p.recover); err != nil {
		return nil, err
	}
	res.m["recover_s"] /= f
	var pr *pacedResult
	f, err = timed("paced", func() error {
		pr = runPaced(p.d, w, dues, p.take(len(dues)*w.group), &p.o)
		p.done += pr.accepted
		return nil
	})
	if err != nil {
		return nil, err
	}
	pr.report(res, f)

	// Phase 5: live heap with the deployment (and its whole history) up,
	// and without the probe's own data.
	probe = nil
	var ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	res.m["live_heap_mb"] = float64(ms1.HeapAlloc) / 1e6
	res.m["bench.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

	if err := p.finish(); err != nil {
		return nil, err
	}
	res.attempted, res.failed = p.o.attempted.Load(), p.o.failed.Load()
	if res.failed != 0 {
		res.failf("%d of %d operations failed or were refused", res.failed, res.attempted)
	}
	return res, nil
}

// setup is phase 1: build the deployment cold, several times, each time
// through the warm batch; the last one is kept.
func (p *pass) setup() error {
	w, res := p.w, p.res
	warm := p.take(w.warm)
	var wall []float64
	var prints []fingerprint
	for i := 0; i < p.reps && (i < p.setups || sum(wall) < setupBudget.Seconds()); i++ {
		if p.d != nil {
			if err := p.d.close(); err != nil {
				return fmt.Errorf("close: %w", err)
			}
			if err := os.RemoveAll(p.dir); err != nil {
				return err
			}
		}
		var err error
		if p.dir, err = os.MkdirTemp(p.cfg.tmp, w.name+"-"); err != nil {
			return err
		}
		// A set-up is a cold start: collect the previous deployment first,
		// as a fresh process would not have its garbage to sweep.
		runtime.GC()
		t0 := time.Now()
		if p.d, err = build(w, p.dir, -1, p.h); err != nil {
			return err
		}
		if w.follower {
			if err := p.d.attachFollower(-1); err != nil {
				return fmt.Errorf("follower: %w", err)
			}
		}
		if p.cfg.tr != nil {
			p.cfg.tr.attach(p.d)
		}
		if err := submitAll(p.d.c1, warm, &p.o); err != nil {
			return fmt.Errorf("warm batch: %w", err)
		}
		if err := p.d.waitDone(int64(w.warm), 2*time.Minute); err != nil {
			return fmt.Errorf("warm batch: %w", err)
		}
		wall = append(wall, time.Since(t0).Seconds())
		if p.before, err = p.d.c1.Stats(); err != nil {
			return err
		}
		st := p.before
		prints = append(prints, fingerprint{p.d.bgFlows, p.d.bgUtil, st.EventsDone, st.FlowsPlaced, int64(st.VirtualClock), st.TotalCostBps})
	}
	for i, fp := range prints[1:] {
		if fp != prints[0] {
			res.failf("setup %d disagrees with setup 1 on deterministic state: %+v vs %+v", i+2, fp, prints[0])
		}
	}
	if prints[0].eventsDone != w.warm {
		res.failf("warm batch: %d events done, want %d", prints[0].eventsDone, w.warm)
	}
	p.done = w.warm
	res.m["setup_s"] = median(wall)
	res.notef("set-ups (s): %.3f", wall)
	res.m["trace.bg_flows"] = float64(prints[0].bgFlows)
	return nil
}

// drain is phase 2: each round is one atomic batch, timed to the moment
// the engines have completed it.
func (p *pass) drain() error {
	w, res, d := p.w, p.res, p.d
	cpu0 := cpuSeconds()
	var wall []float64
	for r := 0; r < p.rounds; r++ {
		if r == p.rounds-p.ckptRounds {
			t0 := time.Now()
			bytes, err := d.checkpoint()
			if err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			res.m["wal.checkpoint_ms"] = ms(time.Since(t0))
			res.m["wal.checkpoint_mb"] = float64(bytes) / 1e6
		}
		batch := p.take(w.batch)
		t0 := time.Now()
		if err := submitAll(d.c1, batch, &p.o); err != nil {
			return fmt.Errorf("round %d: %w", r+1, err)
		}
		p.done += w.batch
		if err := d.waitDone(int64(p.done), 3*time.Minute); err != nil {
			return fmt.Errorf("round %d: %w", r+1, err)
		}
		wall = append(wall, time.Since(t0).Seconds())
	}
	res.m["bench.drain_cpu_s"] = cpuSeconds() - cpu0
	var err error
	p.o.attempted.Add(1)
	if p.after, err = d.c1.Stats(); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	drained := p.rounds * w.batch
	res.m["drain_events_per_s"] = float64(drained) / sum(wall)
	res.notef("drain rounds (s): %.3f", wall)
	res.m["drain_avg_ect_s"] = p.after.AvgECT.Seconds()
	res.drainCounters(d, p.before, p.after, drained)
	var inproc []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if resp := d.entry(ctl.Request{Op: ctl.OpStats}); !resp.OK {
			return fmt.Errorf("in-process stats: %s", resp.Error)
		}
		inproc = append(inproc, us(time.Since(t0)))
	}
	res.m["metrics.stats_inproc_us"] = median(inproc)
	return nil
}

// recover is phase 3: stop everything, then time the rebuild of the same
// deployment from its WAL directories until the client entry point
// answers. Recovery appends nothing, so repeating it replays the same
// records; the median repetition is reported. What the first deployment
// counted in its own memory is carried over first.
func (p *pass) recover() error {
	w, res := p.w, p.res
	for name, v := range p.d.replCounters() {
		res.m[name] = v
	}
	if p.d.cluster != nil {
		adm, rej := p.d.cluster.Cross.Counters()
		res.m["shard.cross_admitted"], res.m["shard.cross_rejected"] = float64(adm), float64(rej)
	}
	var wall []float64
	for i := 0; i < p.reps && (i < p.recoveries || sum(wall) < recoverBudget.Seconds()); i++ {
		if err := p.d.close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}
		runtime.GC() // a restarted daemon starts with an empty heap
		t0 := time.Now()
		var err error
		if p.d, err = build(w, p.dir, 0, p.h); err != nil {
			return err
		}
		p.o.attempted.Add(1)
		st, err := p.d.c1.Stats()
		if err != nil {
			return fmt.Errorf("stats: %w", err)
		}
		wall = append(wall, time.Since(t0).Seconds())
		replayed := int(p.d.counter("netupdate_wal_replayed_records"))
		res.m["wal.replayed_records"] = float64(replayed)
		if want := p.ckptRounds * w.batch; replayed != want {
			res.failf("recovery %d replayed %d records, want P*B = %d", i+1, replayed, want)
		}
		if st.EventsDone != p.done {
			res.failf("recovery %d: %d events done, want W + R*B = %d", i+1, st.EventsDone, p.done)
		}
		if st.AvgECT != p.after.AvgECT || st.TotalCostBps != p.after.TotalCostBps {
			res.failf("recovery %d changed history: avg ECT %v -> %v, cost %d -> %d", i+1, p.after.AvgECT, st.AvgECT, p.after.TotalCostBps, st.TotalCostBps)
		}
	}
	res.m["recover_s"] = median(wall)
	res.notef("recoveries (s): %.3f", wall)
	if w.follower {
		t0 := time.Now()
		if err := p.d.attachFollower(0); err != nil {
			return fmt.Errorf("follower: %w", err)
		}
		res.m["repl.catchup_s"] = time.Since(t0).Seconds()
	}
	if p.cfg.tr != nil {
		p.cfg.tr.attach(p.d)
	}
	return nil
}

// finish reads what the recovered deployment counted, runs the traced
// pass's gateway probe and the follower workload's failover, and closes
// the deployment.
func (p *pass) finish() error {
	res, d := p.res, p.d
	if d.cluster != nil {
		if p.cfg.tr != nil {
			n, err := p.cfg.tr.probeGateway(d, p.take(gatewayProbes*p.w.group), &p.o)
			if err != nil {
				return err
			}
			p.done += n
			if err := d.waitDone(int64(p.done), time.Minute); err != nil {
				return err
			}
		}
		// The ledger lives in gateway memory: the recovered gateway
		// counts from zero, so the pass total is both ledgers' sum.
		adm, rej := d.cluster.Cross.Counters()
		res.m["shard.cross_admitted"] += float64(adm)
		res.m["shard.cross_rejected"] += float64(rej)
		if n := res.m["shard.cross_rejected"]; n != 0 {
			res.failf("cross-shard pool refused %.0f events", n)
		}
		if v, ok := d.gateway.Registry().Snapshot()["netupdate_gateway_fanouts_total"].(int64); ok {
			res.m["shard.fanouts"] = float64(v)
		}
	}
	if p.w.follower {
		for name, v := range d.replCounters() {
			res.m[name] += v
		}
		if n := res.m["repl.follower_drops"]; n != 0 {
			res.failf("leader dropped its follower %.0f times", n)
		}
		if err := res.failover(d, p.take(1), p.done, &p.o); err != nil {
			return fmt.Errorf("failover: %w", err)
		}
	}
	p.d = nil
	if err := d.close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return nil
}

// drainCounters derives the per-layer counters of the drain from the
// Stats and registry deltas across it.
func (r *runResult) drainCounters(d *deployment, before, after ctl.Stats, drained int) {
	w := d.w
	cost := after.TotalCostBps - before.TotalCostBps
	r.m["migration.cost_mbps"] = float64(cost) / 1e6
	admitted := float64(d.counter("netupdate_flows_admitted_total"))
	failed := float64(d.counter("netupdate_flows_failed_total"))
	if admitted+failed > 0 {
		r.m["migration.flows_failed_share"] = failed / (admitted + failed)
	}
	r.m["core.probe_hit_rate"] = after.ProbeHitRate
	r.m["core.probe_cold"] = float64(after.ProbeColdPlans - before.ProbeColdPlans)
	r.m["core.probe_incremental"] = float64(after.ProbeIncrementalReplans - before.ProbeIncrementalReplans)
	rounds := after.Rounds - before.Rounds
	r.m["sched.rounds"] = float64(rounds)
	if rounds > 0 {
		r.m["sched.events_per_round"] = float64(drained) / float64(rounds)
	}
	// Plan time is evaluations × the sim's 1 µs PlanEvalTime.
	r.m["sched.evals_per_event"] = float64((after.PlanTime-before.PlanTime)/time.Microsecond) / float64(drained)
	r.m["ctl.batches"] = float64(after.IngestBatches - before.IngestBatches)
	r.m["ctl.rejected"] = float64(after.IngestRejected)
	r.m["wal.bytes_per_event"] = float64(d.counter("netupdate_wal_bytes_total")) / float64(w.warm+drained)
	r.m["wal.syncs_per_kevent"] = float64(d.counter("netupdate_wal_syncs_total")) / float64(w.warm+drained) * 1000

	switch {
	case w.scheduler == "fifo" && (cost != 0 || after.ProbeCacheHits+after.ProbeCacheMisses != 0):
		r.failf("%s must not plan: cost %d bps, %d probes", w.name, cost, after.ProbeCacheHits+after.ProbeCacheMisses)
	case w.name == "paper_plan" && cost == 0:
		r.failf("paper_plan drained with Cost(U) == 0: the migration planner was never exercised")
	}
	if after.IngestRejected != 0 {
		r.failf("%d events rejected for overload", after.IngestRejected)
	}
}

// replCounters reads the leader's replication counters, by metric name
// (empty without a follower).
func (d *deployment) replCounters() map[string]float64 {
	if !d.w.follower {
		return nil
	}
	return map[string]float64{
		"repl.records_sent":   float64(d.counter("netupdate_repl_records_sent_total")),
		"repl.acks":           float64(d.counter("netupdate_repl_acks_total")),
		"repl.follower_drops": float64(d.counter("netupdate_repl_follower_drops_total")),
	}
}

// failover closes the leader, promotes the follower through its own
// client port and times the first acknowledged write on it.
func (r *runResult) failover(d *deployment, extra []ctl.EventSpec, total int, o *ops) error {
	_ = d.c1.Close()
	_ = d.c2.Close()
	d.c1, d.c2 = nil, nil
	if err := d.closeLeader(); err != nil {
		return err
	}
	t0 := time.Now()
	fc, err := ctl.DialBinary(d.followerAddr)
	if err != nil {
		return err
	}
	defer fc.Close()
	o.attempted.Add(1)
	if _, err := fc.Promote(); err != nil {
		o.failed.Add(1)
		return err
	}
	if err := submitAll(fc, extra, o); err != nil {
		return err
	}
	r.m["repl.failover_ms"] = ms(time.Since(t0))
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := fc.Stats()
		if err != nil {
			return err
		}
		if st.EventsDone == total+1 {
			return nil
		}
		if time.Now().After(deadline) {
			r.failf("promoted follower holds %d events done, want %d", st.EventsDone, total+1)
			return nil
		}
		time.Sleep(time.Millisecond)
	}
}
