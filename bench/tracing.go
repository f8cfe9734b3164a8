package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/ctl"
	"netupdate/internal/obs"
	"netupdate/internal/sched"
)

// tracer is the traced pass's instrumentation. It uses public seams
// only: a span sink handed to ctl.Config (single-engine workloads), a
// scheduler wrapper overriding Pick, and ctl.Backend decorators under
// the gateway. Everything is kept in memory and written out at exit.
type tracer struct {
	w *workload

	mu     sync.Mutex
	stages []obs.StageRecord // every stage record the span sink saw
	picks  []*timedPLMTF
	shards []*timedBackend

	// pacedFrom is the wall clock at the last attach: spans of events
	// ingested later belong to the paced phase, the ones the budget
	// table explains.
	pacedFrom int64
	// route holds the in-process gateway probe (see probeGateway).
	routeSelfUs, backendWaitUs []float64
}

func newTracer(w *workload) *tracer { return &tracer{w: w} }

// Emit implements obs.Sink; the server calls it from its span drain
// goroutine.
func (t *tracer) Emit(r *obs.Record) {
	if r.Stage == nil {
		return
	}
	t.mu.Lock()
	t.stages = append(t.stages, *r.Stage)
	t.mu.Unlock()
}

// Flush implements obs.Sink.
func (*tracer) Flush() error { return nil }

// timedPLMTF times every scheduling decision. Embedding keeps Name,
// ProbeEngine, SetProbes, RNGDraws and RestoreRNG visible to the engine
// and the WAL, so the wrapped scheduler is indistinguishable to them.
type timedPLMTF struct {
	*sched.PLMTF
	ns []int64 // appended by the goroutine that owns the engine
}

func (s *timedPLMTF) Pick(q *sched.Queue, p *core.Planner) (sched.Decision, error) {
	t0 := time.Now()
	d, err := s.PLMTF.Pick(q, p)
	s.ns = append(s.ns, int64(time.Since(t0)))
	return d, err
}

// timedBackend accumulates the time the gateway spends waiting on one
// shard backend.
type timedBackend struct {
	ctl.Backend
	busyNs atomic.Int64
}

func (b *timedBackend) Do(req ctl.Request) ctl.Response {
	t0 := time.Now()
	resp := b.Backend.Do(req)
	b.busyNs.Add(int64(time.Since(t0)))
	return resp
}

func (t *tracer) hooks() hooks {
	h := hooks{
		wrapSched: func(s sched.Scheduler) sched.Scheduler {
			p, ok := s.(*sched.PLMTF)
			if !ok {
				return s
			}
			tp := &timedPLMTF{PLMTF: p}
			t.picks = append(t.picks, tp)
			return tp
		},
		wrapBackend: func(b ctl.Backend) ctl.Backend {
			tb := &timedBackend{Backend: b}
			t.shards = append(t.shards, tb)
			return tb
		},
	}
	if t.w.shards <= 1 {
		h.spanSink = t
	}
	return h
}

// attach turns client-side span stamps on for a freshly built
// deployment and marks the start of what follows.
func (t *tracer) attach(d *deployment) {
	if d.h.spanSink != nil {
		d.c1.EnableSpans(1)
	}
	t.pacedFrom = time.Now().UnixNano()
}

// probeGateway measures the gateway's own routing cost, which no wire
// client can separate from the wire: it calls Handle in-process with
// paced-shaped submit requests while nothing else runs, and splits
// each call into time inside the backend decorators and the rest
// (KeyOf, grouping, cross admission, verdict fan-in). It returns how
// many events it submitted.
func (t *tracer) probeGateway(d *deployment, events []ctl.EventSpec, o *ops) (int, error) {
	busy := func() int64 {
		var s int64
		for _, b := range t.shards[len(t.shards)-d.w.shards:] {
			s += b.busyNs.Load()
		}
		return s
	}
	n := 0
	for ; len(events) >= d.w.group; events = events[d.w.group:] {
		batch := events[:d.w.group]
		o.attempted.Add(int64(len(batch)))
		b0, t0 := busy(), time.Now()
		resp := d.entry(ctl.Request{Op: ctl.OpSubmitBatch, Events: batch})
		total, wait := int64(time.Since(t0)), busy()-b0
		if !resp.OK || len(resp.Verdicts) != len(batch) {
			o.failed.Add(int64(len(batch)))
			return n, fmt.Errorf("gateway probe: %s", resp.Error)
		}
		for _, v := range resp.Verdicts {
			if !v.OK {
				o.failed.Add(1)
				return n, fmt.Errorf("gateway probe: event refused: %s", v.Error)
			}
		}
		n += len(batch)
		t.routeSelfUs = append(t.routeSelfUs, float64(total-wait)/1e3)
		t.backendWaitUs = append(t.backendWaitUs, float64(wait)/1e3)
	}
	return n, nil
}

// report derives the traced metrics and prints the budget table: the
// medians of each stage an event passes through, their sum, and the
// client-side number that sum should explain.
func (t *tracer) report(r *runResult, w io.Writer) {
	type span struct{ ingest, admit, commit, queue, exec, e2e float64 }
	byEvent := map[int64]*span{}
	paced := map[int64]bool{}
	for _, s := range t.stages {
		sp := byEvent[s.Event]
		if sp == nil {
			sp = &span{}
			byEvent[s.Event] = sp
		}
		switch s.Stage {
		case obs.StageIngest:
			sp.ingest = float64(s.SinceNs)
			paced[s.Event] = s.WallNs >= t.pacedFrom
		case obs.StageAdmit:
			sp.admit = float64(s.SinceNs)
		case obs.StageWALCommit:
			sp.commit = float64(s.SinceNs)
		case obs.StageComplete:
			sp.queue, sp.exec, sp.e2e = float64(s.QueueNs), float64(s.RoundsNs), float64(s.E2ENs)
		}
	}
	var ingest, admit, commit, queue, exec, e2e []float64
	for id, sp := range byEvent {
		if !paced[id] || sp.e2e == 0 {
			continue
		}
		ingest, admit, commit = append(ingest, sp.ingest/1e3), append(admit, sp.admit/1e3), append(commit, sp.commit/1e3)
		queue, exec, e2e = append(queue, sp.queue/1e6), append(exec, sp.exec/1e6), append(e2e, sp.e2e/1e6)
	}
	var pickMs []float64
	for _, p := range t.picks {
		for _, ns := range p.ns {
			pickMs = append(pickMs, float64(ns)/1e6)
		}
	}

	fmt.Fprintf(w, "%s budget (traced paced phase, medians)\n", t.w.name)
	row := func(name string, v float64, unit string) { fmt.Fprintf(w, "  %-38s %10.3f %s\n", name, v, unit) }
	if len(e2e) > 0 {
		r.m["span.ingest_p50_us"], r.m["span.admit_p50_us"], r.m["span.wal_commit_p50_us"] = median(ingest), median(admit), median(commit)
		r.m["span.queue_p50_ms"], r.m["span.exec_p50_ms"] = median(queue), median(exec)
		row("submit -> ingest (wire, decode)", median(ingest)/1e3, "ms")
		row("ingest -> admit (state loop)", median(admit)/1e3, "ms")
		row("admit -> exec (queue; of which", median(queue), "ms")
		row("   admit -> wal_commit)", median(commit)/1e3, "ms")
		row("exec -> complete (plan, install)", median(exec), "ms")
		row("stage sum", (median(ingest)+median(admit))/1e3+median(queue)+median(exec), "ms")
		row("span e2e p50 (submit -> complete)", median(e2e), "ms")
		row("client done p50, raw (due -> Status)", r.m["done_p50_ms"]*r.m["bench.speed_paced"], "ms")
		fmt.Fprintf(w, "  (%d paced events with complete spans; the client number adds generator lateness and the Status poll)\n", len(e2e))
	} else {
		fmt.Fprintln(w, "  engine-internal stages: out of reach (shard.WorldConfig exposes no span sink)")
	}
	if len(pickMs) > 0 {
		r.m["sched.pick_p50_ms"] = median(pickMs)
		row(fmt.Sprintf("sched.Pick p50 (%d decisions)", len(pickMs)), median(pickMs), "ms")
	}
	if len(t.routeSelfUs) > 0 {
		r.m["shard.route_self_us"], r.m["shard.backend_wait_us"] = median(t.routeSelfUs), median(t.backendWaitUs)
		row("gateway Handle self (in-process)", median(t.routeSelfUs)/1e3, "ms")
		row("gateway backend wait (in-process)", median(t.backendWaitUs)/1e3, "ms")
		row("client ack p50, raw (due -> verdict)", r.m["ack_p50_ms"]*r.m["bench.speed_paced"], "ms")
	}
}

// write dumps the in-memory spans to dir/trace-<workload>.jsonl.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+t.w.name+".jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	var firstErr error
	emit := func(v any) {
		if err := enc.Encode(v); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for i := range t.stages {
		emit(obs.Record{Kind: obs.KindStage, Stage: &t.stages[i]})
	}
	type benchSpan struct {
		Kind string  `json:"k"`
		Name string  `json:"name"`
		Us   float64 `json:"us"`
	}
	for _, p := range t.picks {
		for _, ns := range p.ns {
			emit(benchSpan{"bench", "sched.pick", float64(ns) / 1e3})
		}
	}
	for i := range t.routeSelfUs {
		emit(benchSpan{"bench", "shard.route_self", t.routeSelfUs[i]})
		emit(benchSpan{"bench", "shard.backend_wait", t.backendWaitUs[i]})
	}
	if err := bw.Flush(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
