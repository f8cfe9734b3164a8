package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// at reads one metric of a sample.
func at(s Sample, name string) Value {
	v, _ := s.Get(name)
	return v
}

// TestMergeRules: each metric combines by the rule it was registered
// with, first sample first.
func TestMergeRules(t *testing.T) {
	build := func(n int64, util float64, policy string) Sample {
		r := NewRegistry()
		r.NewCounter("c", "sum").Add(n)
		r.NewGauge("g_sum", "sum", MergeSum).Set(n)
		r.NewGauge("g_max", "max", MergeMax).Set(n)
		r.NewGauge("g_first", "first", MergeFirst).Set(n)
		r.NewFloatGauge("f_mean", "mean", MergeMean).Set(util)
		r.NewInfo("i", "first", map[string]string{"policy": policy})
		r.NewCounterFunc("cf", "sum", func() int64 { return 2 * n })
		return r.Sample()
	}
	m := Merge(build(3, 0.25, "group"), build(5, 0.5, "always"), build(1, 0.75, "off"))
	for name, want := range map[string]int64{"c": 9, "g_sum": 9, "g_max": 5, "g_first": 3, "cf": 18} {
		if got := at(m, name).Int; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := at(m, "f_mean").Float; got != 0.5 {
		t.Errorf("f_mean = %v, want 0.5", got)
	}
	if got := at(m, "i").Labels["policy"]; got != "group" {
		t.Errorf("info policy = %q, want the first sample's", got)
	}
	// A metric only some samples hold merges over those.
	r := NewRegistry()
	r.NewFloatGauge("f_mean", "mean", MergeMean).Set(1)
	if got := at(Merge(build(1, 0.5, "x"), NewRegistry().Sample(), r.Sample()), "f_mean").Float; got != 0.75 {
		t.Errorf("mean over the two holders = %v, want 0.75", got)
	}
}

// TestMergedPercentileIsUnion: merged histograms answer every percentile
// exactly as one histogram fed all the observations does, where the
// worst shard's percentile would be far off.
func TestMergedPercentileIsUnion(t *testing.T) {
	one := NewRegistry().NewDurationHistogram("all", "every observation")
	shard := func(obs ...[2]int64) Sample {
		r := NewRegistry()
		h := r.NewDurationHistogram("lat", "one shard's observations")
		for _, o := range obs {
			for i := int64(0); i < o[0]; i++ {
				h.Observe(o[1])
				one.Observe(o[1])
			}
		}
		return r.Sample()
	}
	a := shard([2]int64{1000, int64(time.Millisecond)}, [2]int64{3, int64(40 * time.Millisecond)})
	b := shard([2]int64{10, int64(100 * time.Millisecond)}, [2]int64{90, int64(3 * time.Microsecond)})
	m := at(Merge(a, b), "lat").Hist
	for _, p := range []float64{1, 10, 50, 90, 95, 99, 99.5, 99.9, 100} {
		if got, want := m.Percentile(p), one.Percentile(p); got != want {
			t.Errorf("merged p%v = %d, one histogram says %d", p, got, want)
		}
	}
	if worst := max(at(a, "lat").Hist.Percentile(99), at(b, "lat").Hist.Percentile(99)); worst == one.Percentile(99) {
		t.Fatalf("planted observations do not separate the worst shard's p99 (%d) from the union's", worst)
	}
	if m.Count != one.Count() || m.Sum != one.Sum() || m.Mean() != one.Sum()/one.Count() {
		t.Errorf("merged count/sum = %d/%d, want %d/%d", m.Count, m.Sum, one.Count(), one.Sum())
	}
}

// TestSampleJSONRoundTrip: a sample survives the wire (OpMetrics to a
// remote gateway) unchanged.
func TestSampleJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	m := NewSimMetrics(r)
	m.ECT.Observe(int64(3 * time.Millisecond))
	m.ECT.Observe(1 << 50)
	m.LinkUtil.Update([]float64{0.3, 0.8, 2})
	m.Utilization.Set(0.4)
	m.VirtualClock.Set(77)
	NewLatencyMetrics(r)
	r.NewInfo("netupdate_scheduler_info", "s", map[string]string{"scheduler": "fifo"})
	s := r.Sample()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Sample
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, raw) {
		t.Errorf("round trip changed the sample:\nsent %s\ngot  %s", raw, again)
	}
	for _, p := range []float64{50, 99, 100} {
		if got, want := at(back, "netupdate_ect_ns").Hist.Percentile(p), m.ECT.Percentile(p); got != want {
			t.Errorf("decoded p%v = %d, want %d", p, got, want)
		}
	}
}

// TestSnapshotShape: Snapshot keeps the expvar shape readers depend on —
// int64 counters and gauges, float64 float gauges, nested maps of
// cumulative buckets.
func TestSnapshotShape(t *testing.T) {
	r := NewRegistry()
	m := NewSimMetrics(r)
	m.Rounds.Add(4)
	m.ECT.Observe(5)
	m.ECT.Observe(int64(time.Second))
	m.LinkUtil.Update([]float64{0.05, 0.95})
	m.Utilization.Set(0.5)
	NewLatencyMetrics(r).E2E.Observe(int64(time.Millisecond))
	snap := r.Snapshot()
	if v, ok := snap["netupdate_rounds_total"].(int64); !ok || v != 4 {
		t.Errorf("counter = %#v", snap["netupdate_rounds_total"])
	}
	if _, ok := snap["netupdate_queue_depth"].(int64); !ok {
		t.Errorf("gauge = %#v", snap["netupdate_queue_depth"])
	}
	if v, ok := snap["netupdate_utilization"].(float64); !ok || v != 0.5 {
		t.Errorf("float gauge = %#v", snap["netupdate_utilization"])
	}
	ect, ok := snap["netupdate_ect_ns"].(map[string]any)
	if !ok || ect["count"] != int64(2) || ect["sum"] != int64(time.Second)+5 {
		t.Fatalf("histogram = %#v", snap["netupdate_ect_ns"])
	}
	buckets := ect["buckets"].(map[string]int64)
	if len(buckets) != 33 || buckets["le_1000"] != 1 || buckets["le_inf"] != 2 {
		t.Errorf("histogram buckets = %v", buckets)
	}
	util := snap["netupdate_link_utilization"].(map[string]int64)
	if util["le_0.1"] != 1 || util["le_1"] != 2 || util["le_inf"] != 2 {
		t.Errorf("distribution = %v", util)
	}
	q := snap["netupdate_latency_e2e_quantile_ns"].(map[string]int64)
	if q["p50"] != int64(time.Millisecond) || len(q) != 4 {
		t.Errorf("quantiles = %v", q)
	}
}

func TestInfoRendersLabels(t *testing.T) {
	r := NewRegistry()
	in := r.NewInfo("x_info", "facts", nil)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "\nx_info 1\n") {
		t.Errorf("label-less info:\n%s", buf.String())
	}
	in.Set(map[string]string{"b": "2", "a": `q"uote`})
	buf.Reset()
	r.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `x_info{a="q\"uote",b="2"} 1`) {
		t.Errorf("info:\n%s", buf.String())
	}
}

// restoreSet is a metric set with restorable and process-local members.
type restoreSet struct {
	Done   *Counter   `metric:"t_done_total,restore"`
	ECT    *Histogram `metric:"t_ect_ns,restore" buckets:"1000,3"`
	Frames *Counter   `metric:"t_frames_total"`
	Conns  *Gauge     `metric:"t_conns"`
}

// otherLayout registers t_ect_ns with one bucket more than restoreSet.
type otherLayout struct {
	ECT *Histogram `metric:"t_ect_ns,restore" buckets:"1000,4"`
}

// TestRegistryRestore: the restorable reading survives a JSON round trip
// into a fresh registry — counts, buckets, sum, count and maximum — and
// Restore refuses, restoring nothing, a reading of another layout or
// type and a metric the registry does not hold as restorable.
func TestRegistryRestore(t *testing.T) {
	r := NewRegistry()
	m := register(r, new(restoreSet))
	m.Done.Add(7)
	m.ECT.Observe(2500)
	m.ECT.Observe(500)
	m.Frames.Add(3)
	m.Conns.Set(2)
	data, err := json.Marshal(r.Restorable())
	if err != nil {
		t.Fatal(err)
	}
	var saved Sample
	if err := json.Unmarshal(data, &saved); err != nil {
		t.Fatal(err)
	}
	if len(saved) != 2 || saved[0].Name != "t_done_total" || saved[1].Name != "t_ect_ns" {
		t.Fatalf("restorable reading %s, want t_done_total and t_ect_ns only", data)
	}

	fresh := NewRegistry()
	got := register(fresh, new(restoreSet))
	if err := fresh.Restore(saved); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if again, _ := json.Marshal(fresh.Restorable()); string(again) != string(data) {
		t.Errorf("restored reading %s, want %s", again, data)
	}
	if got.ECT.Percentile(99) != 2500 {
		t.Errorf("restored p99 = %d, want the carried max 2500", got.ECT.Percentile(99))
	}
	if got.Frames.Value() != 0 || got.Conns.Value() != 0 {
		t.Errorf("process-local metrics restored: frames %d, conns %d", got.Frames.Value(), got.Conns.Value())
	}

	refuse := func(why string, r *Registry, s Sample) {
		t.Helper()
		if err := r.Restore(s); err == nil {
			t.Errorf("%s: Restore accepted %+v", why, s)
		}
	}
	other := NewRegistry()
	layout := register(other, new(otherLayout))
	refuse("other bounds", other, saved[1:])
	again := NewRegistry()
	target := register(again, new(restoreSet))
	refuse("other type", again, Sample{{Name: "t_ect_ns", Value: Value{Type: TypeCounter, Int: 1}}})
	// A valid reading first: a refusal must not leave it restored.
	refuse("process-local", again, Sample{saved[0], {Name: "t_frames_total", Value: Value{Type: TypeCounter, Int: 3}}})
	refuse("not registered", again, Sample{{Name: "t_missing_total", Value: Value{Type: TypeCounter, Int: 1}}})
	if layout.ECT.Count() != 0 || target.Done.Value() != 0 || target.ECT.Count() != 0 || target.Frames.Value() != 0 {
		t.Error("a refused Restore changed the registry")
	}
}
