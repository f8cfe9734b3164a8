package ctl

import (
	"bytes"
	"encoding/json"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

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

// syncBuffer is an io.Writer safe for the async span sink's background
// drain goroutine to write while the test later reads the result.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServerSpanPipeline drives a binary client with spans enabled
// through a span-sinking server and checks the whole pipeline: feature
// negotiation, per-event stage waterfalls in the span file, and the
// latency percentiles surfaced through Stats.
func TestServerSpanPipeline(t *testing.T) {
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	net1 := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(7))
	gen, err := trace.NewGenerator(1, trace.YahooLike{}, ft.Hosts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.FillBackground(net1, gen, 0.3, 0); err != nil {
		t.Fatal(err)
	}
	planner := core.NewPlanner(migration.NewPlanner(net1, 0), core.FailSkip)
	var spanOut syncBuffer
	srv := mustNew(t, Config{
		Planner: planner, Scheduler: sched.NewLMTF(4, 99),
		Sim:      sim.Config{InstallTime: time.Millisecond},
		SpanSink: obs.NewJSONLSink(&spanOut),
	})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()

	client, err := DialBinary(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	feats, err := client.Features()
	if err != nil {
		t.Fatalf("Features: %v", err)
	}
	if !slices.Contains(feats, FeatureSpanContext) {
		t.Fatalf("server features %v missing %q", feats, FeatureSpanContext)
	}
	const origin = 2
	client.EnableSpans(origin)

	specs := []EventSpec{
		{Kind: "a", Flows: []FlowSpec{{Src: 0, Dst: 1, DemandBps: 40e6}}},
		{Kind: "b", Flows: []FlowSpec{{Src: 2, Dst: 3, DemandBps: 60e6}, {Src: 4, Dst: 5, DemandBps: 20e6}}},
		{Kind: "c", Flows: []FlowSpec{{Src: 6, Dst: 7, DemandBps: 10e6}}},
	}
	verdicts, _, err := client.SubmitBatch(specs)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	var ids []int64
	for i, v := range verdicts {
		if !v.OK {
			t.Fatalf("event %d rejected: %s", i, v.Error)
		}
		if _, err := client.WaitDone(v.EventID, 10*time.Second); err != nil {
			t.Fatalf("WaitDone(%d): %v", v.EventID, err)
		}
		ids = append(ids, v.EventID)
	}

	st, err := client.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.LatencyE2EP99Ns <= 0 {
		t.Errorf("LatencyE2EP99Ns = %d, want > 0 after %d completions", st.LatencyE2EP99Ns, len(ids))
	}
	if st.LatencyE2EP50Ns > st.LatencyE2EP99Ns {
		t.Errorf("e2e p50 %d > p99 %d", st.LatencyE2EP50Ns, st.LatencyE2EP99Ns)
	}
	if st.SpansDropped != 0 {
		t.Errorf("SpansDropped = %d, want 0", st.SpansDropped)
	}
	client.Close()
	// Close drains the async span sink, so afterwards the buffer holds
	// every stage record.
	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}

	stages := map[int64][]*obs.StageRecord{}
	for _, line := range strings.Split(strings.TrimSpace(spanOut.String()), "\n") {
		if line == "" {
			continue
		}
		var rec obs.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		if rec.Kind != obs.KindStage || rec.Stage == nil {
			t.Fatalf("span channel carried non-stage record: %q", line)
		}
		stages[rec.Stage.Event] = append(stages[rec.Stage.Event], rec.Stage)
	}

	// Every accepted event has a complete waterfall: submit (the wire
	// carried a client stamp), ingest, admit, exec, complete — in order.
	wantPrefix := []string{obs.StageSubmit, obs.StageIngest, obs.StageAdmit}
	for _, id := range ids {
		recs := stages[id]
		if len(recs) == 0 {
			t.Fatalf("event %d has no stage records", id)
		}
		var names []string
		for _, r := range recs {
			if r.TraceID != obs.TraceID(id, origin) {
				t.Errorf("event %d stage %s trace ID %d, want %d", id, r.Stage, r.TraceID, obs.TraceID(id, origin))
			}
			if r.Stage == obs.StageProbed {
				continue // probe count varies with scheduling; checked via Probes below
			}
			names = append(names, r.Stage)
		}
		for i, want := range wantPrefix {
			if i >= len(names) || names[i] != want {
				t.Fatalf("event %d stages = %v, want prefix %v", id, names, wantPrefix)
			}
		}
		last := recs[len(recs)-1]
		if last.Stage != obs.StageComplete {
			t.Fatalf("event %d last stage = %s, want %s", id, last.Stage, obs.StageComplete)
		}
		if last.E2ENs <= 0 {
			t.Errorf("event %d completion E2ENs = %d, want > 0", id, last.E2ENs)
		}
		if !slices.Contains(names, obs.StageExec) {
			t.Errorf("event %d stages %v missing %s", id, names, obs.StageExec)
		}
	}
}
