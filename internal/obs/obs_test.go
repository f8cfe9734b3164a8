package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestJSONLSinkDeterministicBytes(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		s := NewJSONLSink(&buf)
		tr := NewTracer(s, nil)
		tr.RunStart(0, "lmtf(a=4)", 3)
		tr.EventArrival(0, ArrivalRecord{Event: 1, Kind: "vm", Flows: 4, QueueDepth: 1})
		tr.Round(1000, &RoundRecord{
			Round: 1, QueueDepth: 1, Head: 1, DecisionEvals: 7,
			Candidates: []ProbeOutcome{{Event: 1, CostBps: 42, Evals: 7, Admittable: 4}},
			Claims:     []LaneClaim{{Event: 1, Flows: 4, CostBps: 42, CompletionVT: 2000}},
			EndVT:      2000,
		})
		tr.EventComplete(2000, SpanRecord{Event: 1, Round: 1, CompletionVT: 2000, ECTNs: 2000, Flows: 4})
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := emit(), emit()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical emissions produced different bytes:\n%s\nvs\n%s", a, b)
	}
	lines := bytes.Split(bytes.TrimSpace(a), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	for _, line := range lines {
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if r.Kind == "" {
			t.Fatalf("line %q: empty kind", line)
		}
	}
}

func TestRingSinkEvictsOldest(t *testing.T) {
	s := NewRingSink(3)
	for i := 1; i <= 5; i++ {
		s.Emit(&Record{Kind: KindArrival, VT: int64(i)})
	}
	if s.Total() != 5 {
		t.Fatalf("Total = %d, want 5", s.Total())
	}
	got := s.Last(0)
	if len(got) != 3 {
		t.Fatalf("Last(0) returned %d records, want 3", len(got))
	}
	for i, r := range got {
		if want := int64(i + 3); r.VT != want {
			t.Errorf("record %d: VT = %d, want %d", i, r.VT, want)
		}
	}
	if got := s.Last(2); len(got) != 2 || got[0].VT != 4 || got[1].VT != 5 {
		t.Errorf("Last(2) = %+v, want VT 4,5", got)
	}
	if got := s.Last(10); len(got) != 3 {
		t.Errorf("Last(10) returned %d records, want 3", len(got))
	}
}

func TestRingSinkPartial(t *testing.T) {
	s := NewRingSink(8)
	s.Emit(&Record{VT: 1})
	s.Emit(&Record{VT: 2})
	got := s.Last(0)
	if len(got) != 2 || got[0].VT != 1 || got[1].VT != 2 {
		t.Fatalf("Last(0) = %+v, want VT 1,2", got)
	}
}

func TestNilTracerAndNilSink(t *testing.T) {
	// A tracer over a NilSink must accept every hook without panicking.
	tr := NewTracer(NilSink{}, nil)
	tr.RunStart(0, "fifo", 0)
	tr.EventArrival(0, ArrivalRecord{})
	tr.Round(0, &RoundRecord{})
	tr.EventComplete(0, SpanRecord{})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h", "test", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if h.Sum() != 5+10+11+100+5000 {
		t.Fatalf("Sum = %d", h.Sum())
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`h_bucket{le="10"} 2`,   // 5 and 10
		`h_bucket{le="100"} 4`,  // + 11, 100
		`h_bucket{le="1000"} 4`, // nothing in (100, 1000]
		`h_bucket{le="+Inf"} 5`, // + 5000
		"h_sum 5126",
		"h_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestDistributionUpdateReplaces(t *testing.T) {
	r := NewRegistry()
	d := r.NewDistribution("u", "test", []float64{0.5, 1.0})
	d.Update([]float64{0.1, 0.5, 0.9, 1.5})
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	for _, want := range []string{
		`u_bucket{le="0.5"} 2`,
		`u_bucket{le="1"} 3`,
		`u_bucket{le="+Inf"} 4`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing %q:\n%s", want, buf.String())
		}
	}
	// A second Update replaces, not accumulates.
	d.Update([]float64{0.2})
	buf.Reset()
	r.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `u_bucket{le="+Inf"} 1`) {
		t.Errorf("update did not replace distribution:\n%s", buf.String())
	}
}

func TestDurationHistogramCoversHours(t *testing.T) {
	r := NewRegistry()
	h := r.NewDurationHistogram("d_ns", "test")
	h.Observe(int64(30 * time.Minute))
	var buf bytes.Buffer
	h.writeProm(&buf)
	// 30min must land in a finite bucket, not +Inf only.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	finite := false
	for _, l := range lines {
		if strings.Contains(l, "le=\"+Inf\"") || !strings.Contains(l, "_bucket") {
			continue
		}
		if strings.HasSuffix(l, " 1") {
			finite = true
		}
	}
	if !finite {
		t.Errorf("30min observation fell through every finite bucket:\n%s", buf.String())
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewCounter("x", "second")
}

func TestSimMetricsAndHandler(t *testing.T) {
	reg := NewRegistry()
	m := NewSimMetrics(reg)
	m.QueueDepth.Set(7)
	m.Probes.Set(4)
	m.ECT.Observe(int64(2 * time.Millisecond))
	m.LinkUtil.Update([]float64{0.3, 0.8})
	m.Utilization.Set(0.55)

	srv := httptest.NewServer(Handler(reg, nil))
	defer srv.Close()
	for path, wants := range map[string][]string{
		"/metrics": {
			"netupdate_queue_depth 7",
			"netupdate_probe_trial_plans 4",
			"netupdate_ect_ns_count 1",
			"netupdate_link_utilization_bucket",
			"netupdate_utilization 0.55",
		},
		"/debug/vars":   {"netupdate_queue_depth"},
		"/debug/pprof/": {"profiles"},
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		for _, want := range wants {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("GET %s missing %q", path, want)
			}
		}
	}
}

func TestMetricsConcurrency(t *testing.T) {
	reg := NewRegistry()
	m := NewSimMetrics(reg)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Rounds.Inc()
				m.QueueDepth.Set(int64(i))
				m.ECT.Observe(int64(i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			reg.WritePrometheus(&buf)
			_ = reg.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if m.Rounds.Value() != 4000 {
		t.Fatalf("Rounds = %d, want 4000", m.Rounds.Value())
	}
	if m.ECT.Count() != 4000 {
		t.Fatalf("ECT count = %d, want 4000", m.ECT.Count())
	}
}
