package sim_test

import (
	"bytes"
	"testing"

	"netupdate/internal/core"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/obs"
	"netupdate/internal/routing"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

// incrementalRun drives the ctl-server usage pattern: events enqueued
// into a live engine (no Run), either one at a time or in batches of
// batchSize, then stepped to completion. Returns the JSONL trace bytes.
func incrementalRun(t *testing.T, mk func() sched.Scheduler, batchSize int) []byte {
	t.Helper()
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(7))
	gen, err := trace.NewGenerator(1, trace.YahooLike{}, ft.Hosts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.FillBackground(net, gen, 0.6, 0); err != nil {
		t.Fatal(err)
	}
	planner := core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)
	events := gen.Events(12, 4, 16)

	var buf bytes.Buffer
	tr := obs.NewTracer(obs.NewJSONLSink(&buf), nil)
	eng := sim.NewEngine(planner, mk(), sim.Config{})
	eng.SetTracer(tr)

	if batchSize <= 1 {
		for _, ev := range events {
			eng.Enqueue(ev)
		}
	} else {
		for len(events) > 0 {
			n := batchSize
			if n > len(events) {
				n = len(events)
			}
			eng.EnqueueBatch(events[:n])
			events = events[n:]
		}
	}
	for {
		worked, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !worked {
			break
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchedAdmissionDeterminism is the ingest acceptance criterion:
// for a fixed admission order, bulk admission (EnqueueBatch →
// Queue.PushBatch) produces byte-identical traces to one-at-a-time
// Enqueue — same arrival records, same per-event queue depths, same
// rounds — at any batch size.
func TestBatchedAdmissionDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"fifo", func() sched.Scheduler { return sched.FIFO{} }},
		{"lmtf", func() sched.Scheduler { return sched.NewLMTF(4, 1) }},
		{"plmtf", func() sched.Scheduler { return sched.NewPLMTF(4, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			single := incrementalRun(t, tc.mk, 1)
			if len(single) == 0 {
				t.Fatal("empty trace")
			}
			for _, batchSize := range []int{3, 5, 12} {
				batched := incrementalRun(t, tc.mk, batchSize)
				if !bytes.Equal(single, batched) {
					t.Errorf("batch size %d: trace bytes differ from unbatched admission", batchSize)
				}
			}
		})
	}
}
