package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/ctl"
	"netupdate/internal/flow"
	"netupdate/internal/obs"
	"netupdate/internal/repl"
	"netupdate/internal/routing"
	"netupdate/internal/sched"
	"netupdate/internal/shard"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
	"netupdate/internal/wal"
)

// layerReps is how often each layer measurement repeats; the median is
// reported.
const layerReps = 5

// timeOp reports the median over layerReps repetitions of the mean time
// of one f() among iters back-to-back calls, in nanoseconds, plus heap
// allocations per call.
func timeOp(iters int, f func()) (ns, allocs float64) {
	var times []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for r := 0; r < layerReps; r++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		times = append(times, float64(time.Since(t0))/float64(iters))
	}
	runtime.ReadMemStats(&ms1)
	return median(times), float64(ms1.Mallocs-ms0.Mallocs) / float64(layerReps*iters)
}

// runLayers times public functions of each layer directly, with inputs
// shaped like the workloads' (kind A in metrics.go). The calls are the
// ones the end-to-end phases spend their time in, so a layer number
// moving here predicts which end-to-end metric should follow.
func runLayers(seed int64, tmp string) (measures, error) {
	m := measures{}
	var firstErr error
	must := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// topology, trace, routing: what setup_s is made of.
	ns, _ := timeOp(1, func() {
		_, err := topology.NewFatTree(fatTreeK, topology.Gbps)
		must(err)
	})
	m["topology.build_ms"] = ns / 1e6
	ns, _ = timeOp(1, func() {
		_, _, _, err := world(0.6, true)
		must(err)
	})
	m["trace.fill_ms"] = ns / 1e6

	planner, ft, _, err := world(0.6, true)
	if err != nil {
		return nil, err
	}
	nw := planner.Network()
	hosts := ft.Hosts()
	i := 0
	ns, _ = timeOp(64, func() {
		prov := routing.NewFatTreeProvider(ft)
		_ = prov.Paths(hosts[i%64], hosts[64+i%64])
		i++
	})
	m["routing.paths_cold_us"] = ns / 1e3
	ns, _ = timeOp(100000, func() { _ = nw.Provider().Paths(hosts[0], hosts[100]) })
	m["routing.paths_cached_ns"] = ns

	// netstate: the fork behind every parallel probe lane.
	ns, allocs := timeOp(3, func() { _ = nw.Fork() })
	m["netstate.fork_ms"], m["netstate.fork_allocs"] = ns/1e6, allocs

	// migration: one admission with rollback, so every call sees the
	// same 0.6-utilised fabric.
	gen, err := trace.NewGenerator(seed+1000, trace.YahooLike{}, hosts)
	if err != nil {
		return nil, err
	}
	specs := gen.Specs(512)
	mig := planner.Migration()
	i = 0
	ns, allocs = timeOp(len(specs), func() {
		spec := specs[i%len(specs)]
		i++
		spec.Event = 1
		f, err := nw.AddFlow(spec)
		if err != nil {
			must(err)
			return
		}
		if res, err := mig.Admit(f); err == nil {
			must(mig.Rollback(res))
		}
		must(nw.Remove(f))
	})
	m["migration.admit_us"], m["migration.admit_allocs"] = ns/1e3, allocs

	// core: the uncached cost probe and the committed execution of a
	// mid-sized paper event (55 flows), and of a durable_ingest event.
	ev := gen.Event(1, "bench", 0, 55, 55)
	ns, allocs = timeOp(10, func() {
		_, err := planner.Probe(ev)
		must(err)
	})
	m["core.probe_us"], m["core.probe_allocs"] = ns/1e3, allocs
	m["core.execute_us"] = timeExecute(planner, func(id flow.EventID) *core.Event {
		return gen.Event(id, "bench", 0, 55, 55)
	}, 10, must)
	light, lightFT, _, err := world(0.3, true)
	if err != nil {
		return nil, err
	}
	small, err := genSmall(5*topology.Mbps, 0)(seed+1000, lightFT, 4096)
	if err != nil {
		return nil, err
	}
	m["core.execute_small_us"] = timeExecute(light, func(id flow.EventID) *core.Event {
		return coreEvent(id, small[int(id)%len(small)])
	}, 500, must)

	// sched, sim: one decision over the paper backlog with a warm probe
	// cache, and whole scheduling rounds on it.
	backlog := gen.Events(150, 10, 100)
	q := sched.NewQueue()
	q.PushBatch(backlog)
	plmtf := sched.NewPLMTF(4, worldSeed)
	for i := 0; i < 50; i++ {
		_, err := plmtf.Pick(q, planner)
		must(err)
	}
	ns, _ = timeOp(20, func() {
		_, err := plmtf.Pick(q, planner)
		must(err)
	})
	m["sched.pick_us"] = ns / 1e3
	engine := sim.NewEngine(planner, sched.NewPLMTF(4, worldSeed), sim.Config{})
	engine.EnqueueBatch(backlog)
	var rounds []float64
	for i := 0; i < 30; i++ {
		t0 := time.Now()
		_, err := engine.Step()
		must(err)
		rounds = append(rounds, ms(time.Since(t0)))
	}
	m["sim.round_ms"] = median(rounds)

	// ctl: codec, an empty round trip through wire and state loop, and
	// admission without wire or WAL.
	req := &ctl.Request{Op: ctl.OpSubmitBatch, Events: small[:8]}
	var frame []byte
	ns, _ = timeOp(2000, func() {
		frame, err = ctl.AppendRequestFrame(frame[:0], req)
		must(err)
	})
	m["ctl.encode_us"] = ns / 1e3
	must(ctlLayer(m, light, small))

	// wal, repl: append, fsync, replay, and one replication frame.
	must(walLayer(m, tmp, small))

	// shard: key resolution and the cross-shard ledger.
	part, err := shard.NewPartition(ft, 4)
	if err != nil {
		return nil, err
	}
	endpoints := []topology.NodeID{hosts[0], hosts[40], hosts[3], hosts[90], hosts[7], hosts[9]}
	ns, _ = timeOp(20000, func() { _ = part.KeyOf(endpoints) })
	m["shard.keyof_ns"] = ns
	cross := shard.NewCrossAdmitter(4, topology.Gbps)
	touched := []int{1, 3}
	ns, _ = timeOp(20000, func() {
		must(cross.Admit(touched, 6e6))
		cross.Release(touched, 6e6)
	})
	m["shard.cross_admit_ns"] = ns

	// obs: the seven stage records of one event's span.
	rec := obs.NewSpanRecorder(obs.NilSink{}, obs.NewLatencyMetrics(obs.NewRegistry()))
	id := int64(0)
	ns, _ = timeOp(20000, func() {
		id++
		wall := time.Now().UnixNano()
		rec.Opened(id, obs.SpanContext{Origin: 1, SubmitWallNs: wall}, wall, 0)
		rec.Admitted(id, wall, 0)
		rec.WALCommitted(id, wall, 0)
		rec.Probed(id, 1, 0)
		rec.ExecStart(id, 1, 0)
		rec.Completed(id, 1, 0, 2, 0, 0, false)
	})
	m["obs.span_emit_ns"] = ns / 7

	return m, firstErr
}

func coreEvent(id flow.EventID, spec ctl.EventSpec) *core.Event {
	flows := make([]flow.Spec, len(spec.Flows))
	for i, f := range spec.Flows {
		flows[i] = flow.Spec{Src: topology.NodeID(f.Src), Dst: topology.NodeID(f.Dst), Demand: topology.Bandwidth(f.DemandBps), Size: f.SizeBytes}
	}
	return core.NewEvent(id, spec.Kind, 0, flows)
}

// timeExecute times Planner.Execute on fresh events; the rollback that
// keeps the fabric unchanged between calls is not timed.
func timeExecute(p *core.Planner, next func(flow.EventID) *core.Event, iters int, must func(error)) float64 {
	var reps []float64
	id := flow.EventID(1000)
	for r := 0; r < layerReps; r++ {
		var total time.Duration
		for i := 0; i < iters; i++ {
			id++
			ev := next(id)
			t0 := time.Now()
			res, err := p.Execute(ev)
			total += time.Since(t0)
			if err != nil {
				must(err)
				continue
			}
			must(p.RollbackExec(res))
		}
		reps = append(reps, us(total)/float64(iters))
	}
	return median(reps)
}

// ctlLayer serves a WAL-less fifo engine on loopback.
func ctlLayer(m measures, planner *core.Planner, small []ctl.EventSpec) error {
	srv, _, err := ctl.New(ctl.Config{Planner: planner, Scheduler: sched.FIFO{}})
	if err != nil {
		return err
	}
	addr, stop, err := serve(srv)
	if err != nil {
		return err
	}
	defer stop()
	c, err := ctl.DialBinary(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	var firstErr error
	ns, _ := timeOp(200, func() {
		if err := c.Ping(); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	m["ctl.ping_rtt_us"] = ns / 1e3
	i := 0
	ns, _ = timeOp(100, func() {
		batch := small[i%500*8 : i%500*8+8]
		i++
		if _, _, err := srv.SubmitBatch(batch); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	m["ctl.submit_inproc_us"] = ns / 1e3
	return firstErr
}

// walLayer measures the log on the same filesystem the workloads' WAL
// directories use.
func walLayer(m measures, tmp string, small []ctl.EventSpec) error {
	dir, err := os.MkdirTemp(tmp, "layers-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	meta := &wal.Meta{Format: wal.FormatVersion, Scheduler: "fifo", K: fatTreeK}
	log, err := wal.Open(dir, wal.WithSync(wal.SyncGroup))
	if err != nil {
		return err
	}
	w, err := log.OpenWriter(meta, wal.ID{}, 0)
	if err != nil {
		return err
	}
	seq := int64(0)
	record := func() *wal.Record {
		seq++
		spec := small[int(seq)%len(small)]
		flows := make([]wal.FlowSpec, len(spec.Flows))
		for i, f := range spec.Flows {
			flows[i] = wal.FlowSpec{Src: f.Src, Dst: f.Dst, DemandBps: f.DemandBps, SizeBytes: f.SizeBytes}
		}
		return &wal.Record{Type: wal.TypeEvent, ID: wal.ID{Seq: seq}, Event: &wal.EventRecord{EventID: seq, Kind: spec.Kind, Flows: flows}}
	}
	// Group commits of eight records, the paced request size.
	var appendNs, commitUs []float64
	for i := 0; i < 60; i++ {
		recs := make([]*wal.Record, 8)
		for j := range recs {
			recs[j] = record()
		}
		t0 := time.Now()
		for _, r := range recs {
			if err := w.Append(r); err != nil {
				return err
			}
		}
		t1 := time.Now()
		if err := w.Commit(); err != nil {
			return err
		}
		appendNs = append(appendNs, float64(t1.Sub(t0))/8)
		commitUs = append(commitUs, us(time.Since(t1)))
	}
	m["wal.append_ns"], m["wal.commit_us"] = median(appendNs), median(commitUs)
	for seq < 20000 {
		if err := w.Append(record()); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	var rates []float64
	for r := 0; r < layerReps; r++ {
		log, err := wal.Open(dir)
		if err != nil {
			return err
		}
		t0 := time.Now()
		info, err := log.Replay(0, func(*wal.Record) error { return nil })
		if err != nil {
			return err
		}
		if int64(info.Records) != seq {
			return fmt.Errorf("wal layer: replayed %d of %d records", info.Records, seq)
		}
		rates = append(rates, float64(info.Records)/1e3/time.Since(t0).Seconds())
	}
	m["wal.replay_krec_per_s"] = median(rates)

	// One replication frame of eight records: leader framing, follower
	// read and decode.
	seq = 0
	var frames []byte
	for i := 0; i < 8; i++ {
		if frames, err = wal.AppendFrame(frames, record()); err != nil {
			return err
		}
	}
	var firstErr error
	var msg, scratch []byte
	ns, _ := timeOp(2000, func() {
		var err error
		if msg, err = repl.AppendRecords(msg[:0], frames); err == nil {
			var mm *repl.Message
			if mm, scratch, err = repl.ReadMessage(bytes.NewReader(msg), scratch); err == nil {
				_, err = repl.DecodeRecords(mm.Records)
			}
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	})
	m["repl.frame_us"] = ns / 1e3
	return firstErr
}
