package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// Regression: percentiles used to report the bucket's upper bound even
// when the bucket is orders of magnitude wider than the largest sample.
// The top percentile must snap to the observed max.
func TestHistogramPercentileSnapsToMax(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("t_wide", "wide-bucket test", []int64{1000, 1 << 40})
	for i := 0; i < 10; i++ {
		h.Observe(1500)
	}
	// 1500 lands in the (1000, 2^40] bucket; the naive bucket upper
	// bound would report 2^40 ≈ 18 minutes for a 1.5µs sample.
	if got := h.Percentile(99); got != 1500 {
		t.Fatalf("p99 = %d, want observed max 1500", got)
	}
	if got := h.Percentile(50); got != 1500 {
		t.Fatalf("p50 = %d, want observed max 1500", got)
	}

	// A sample past every bound lands in +Inf; percentile must still be
	// finite (the max), not an overflow sentinel.
	h.Observe(1 << 50)
	if got := h.Percentile(100); got != 1<<50 {
		t.Fatalf("p100 = %d, want %d", got, int64(1<<50))
	}
}

func TestHistogramPercentileEdgeCases(t *testing.T) {
	r := NewRegistry()
	h := r.NewDurationHistogram("t_edge", "edge cases")
	if got := h.Percentile(99); got != 0 {
		t.Fatalf("empty histogram p99 = %d, want 0", got)
	}
	h.Observe(int64(5 * time.Millisecond))
	if got := h.Percentile(0); got != 0 {
		t.Fatalf("p<=0 = %d, want 0 (repo percentile contract)", got)
	}
	if got := h.Percentile(200); got != int64(5*time.Millisecond) {
		t.Fatalf("p>100 clamps to max: got %d", got)
	}
	// Lower percentiles still use bucket bounds when samples spread.
	for i := 0; i < 99; i++ {
		h.Observe(int64(time.Microsecond))
	}
	if got := h.Percentile(50); got != int64(time.Microsecond) {
		t.Fatalf("p50 = %d, want %d", got, int64(time.Microsecond))
	}
}

// blockingSink blocks every Emit until released, to prove AsyncSink
// never propagates inner-sink stalls to the emitter.
type blockingSink struct {
	release chan struct{}
	got     chan Record
}

func (b *blockingSink) Emit(r *Record) {
	b.got <- *r
	<-b.release
}
func (b *blockingSink) Flush() error { return nil }

func TestAsyncSinkOverflowDropsInsteadOfBlocking(t *testing.T) {
	inner := &blockingSink{release: make(chan struct{}), got: make(chan Record, 64)}
	r := NewRegistry()
	dropped := r.NewCounter("obs_spans_dropped_total", "test")
	s := NewAsyncSink(inner, 4, dropped)

	// First record is picked up by the drainer and stalls inside the
	// inner sink; the next 4 fill the ring; everything after drops.
	s.Emit(&Record{Kind: KindStage, VT: 0, Stage: &StageRecord{Event: 0, Stage: StageAdmit}})
	<-inner.got // drainer is provably stuck inside Emit #0, ring empty
	for i := 1; i < 10; i++ {
		done := make(chan struct{})
		go func(i int) {
			s.Emit(&Record{Kind: KindStage, VT: int64(i), Stage: &StageRecord{Event: int64(i), Stage: StageAdmit}})
			close(done)
		}(i)
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("Emit %d blocked on a stalled inner sink", i)
		}
	}
	if got := s.Dropped(); got != 5 {
		t.Fatalf("dropped = %d, want 5 (1 in-flight + 4 buffered of 10)", got)
	}
	if got := dropped.Value(); got != 5 {
		t.Fatalf("obs_spans_dropped_total = %d, want 5", got)
	}

	// Release the inner sink: the buffered 4 must still arrive, then
	// Close flushes cleanly.
	go func() {
		for i := 0; i < 10; i++ {
			inner.release <- struct{}{}
		}
	}()
	seen := 1
	for seen < 5 {
		select {
		case <-inner.got:
			seen++
		case <-time.After(2 * time.Second):
			t.Fatalf("drainer delivered %d records, want 5", seen)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestAsyncSinkDrainsInOrder(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	inner := NewJSONLSink(&lockedWriter{mu: &mu, w: &buf})
	s := NewAsyncSink(inner, 128, nil)
	for i := 0; i < 100; i++ {
		s.Emit(&Record{Kind: KindStage, VT: int64(i), Stage: &StageRecord{Event: int64(i), Stage: StageAdmit}})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	mu.Lock()
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	mu.Unlock()
	if len(lines) != 100 {
		t.Fatalf("got %d records, want 100", len(lines))
	}
	for i, ln := range lines {
		var rec Record
		if err := json.Unmarshal(ln, &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec.Stage == nil || rec.Stage.Event != int64(i) {
			t.Fatalf("line %d out of order: %s", i, ln)
		}
	}
	if s.Dropped() != 0 {
		t.Fatalf("unexpected drops: %d", s.Dropped())
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestSpanRecorderWaterfall(t *testing.T) {
	// Deterministic wall clock for the test.
	old := spanNow
	var wall int64 = 1000
	spanNow = func() int64 { wall += 1000; return wall }
	defer func() { spanNow = old }()

	ring := NewRingSink(64)
	reg := NewRegistry()
	met := NewLatencyMetrics(reg)
	rec := NewSpanRecorder(ring, met)

	rec.Opened(7, SpanContext{Origin: 3, SubmitWallNs: 500}, 1000, 10)
	rec.Admitted(7, 2000, 10)
	rec.WALCommitted(7, 3000, 10)
	rec.Probed(7, 1, 20)
	rec.Probed(7, 2, 30)
	rec.ExecStart(7, 2, 30)
	rec.Completed(7, 2, 40, 5, 1, 2, false)

	if rec.OpenSpans() != 0 {
		t.Fatalf("span not closed: %d open", rec.OpenSpans())
	}
	recs := ring.Last(0)
	var stages []string
	for _, r := range recs {
		if r.Kind != KindStage || r.Stage == nil {
			t.Fatalf("non-stage record on span channel: %+v", r)
		}
		stages = append(stages, r.Stage.Stage)
	}
	want := []string{StageSubmit, StageIngest, StageAdmit, StageWALCommit, StageProbed, StageProbed, StageExec, StageComplete}
	if len(stages) != len(want) {
		t.Fatalf("stages = %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("stage[%d] = %s, want %s", i, stages[i], want[i])
		}
	}

	last := recs[len(recs)-1].Stage
	if last.TraceID != TraceID(7, 3) {
		t.Fatalf("trace id = %d, want %d", last.TraceID, TraceID(7, 3))
	}
	if last.Probes != 2 || last.Flows != 5 || last.Failed != 1 || last.Retries != 2 {
		t.Fatalf("completion summary wrong: %+v", last)
	}
	// exec wall is the first spanNow() after WallNs-stamped stages; the
	// breakdown and e2e must be internally consistent.
	if last.QueueNs != last.WallNs-last.RoundsNs-2000 {
		t.Fatalf("queue/rounds breakdown inconsistent: %+v", last)
	}
	if last.E2ENs != last.WallNs-500 {
		t.Fatalf("e2e = %d, want wall-submit=%d", last.E2ENs, last.WallNs-500)
	}
	if met.E2E.Count() != 1 || met.Queue.Count() != 1 || met.Rounds.Count() != 1 {
		t.Fatalf("histograms not fed: e2e=%d queue=%d rounds=%d", met.E2E.Count(), met.Queue.Count(), met.Rounds.Count())
	}
	if met.Ingest.Count() != 1 || met.Admit.Count() != 1 || met.WALCommit.Count() != 1 {
		t.Fatalf("stage histograms not fed")
	}
}

// Lazily opened spans (repair events, WAL-replayed events) must not
// fabricate ingest/e2e samples they have no submit stamp for.
func TestSpanRecorderLazyOpen(t *testing.T) {
	old := spanNow
	var wall int64
	spanNow = func() int64 { wall += 1000; return wall }
	defer func() { spanNow = old }()

	ring := NewRingSink(16)
	reg := NewRegistry()
	met := NewLatencyMetrics(reg)
	rec := NewSpanRecorder(ring, met)

	rec.ExecStart(99, 4, 100)
	rec.Completed(99, 4, 200, 2, 0, 0, false)

	if met.E2E.Count() != 0 || met.Queue.Count() != 0 || met.Ingest.Count() != 0 {
		t.Fatalf("lazy span fed start-dependent histograms")
	}
	if met.Rounds.Count() != 1 {
		t.Fatalf("rounds histogram not fed for lazy span")
	}
	recs := ring.Last(0)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want exec+complete", len(recs))
	}
	if c := recs[1].Stage; c.E2ENs != 0 || c.QueueNs != 0 || c.RoundsNs == 0 {
		t.Fatalf("lazy completion summary wrong: %+v", c)
	}
}

func TestTraceIDComposition(t *testing.T) {
	if TraceID(1, 0) != 1<<16 {
		t.Fatalf("TraceID(1,0) = %d", TraceID(1, 0))
	}
	if TraceID(0x123456, 0xBEEF) != 0x123456<<16|0xBEEF {
		t.Fatalf("TraceID composition wrong")
	}
}
