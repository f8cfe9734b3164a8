package metrics

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"netupdate/internal/flow"
	"netupdate/internal/topology"
)

func sampleCollector() *Collector {
	c := NewCollector()
	// Three events arriving at t=0: ECTs 2s, 4s, 9s; delays 1s, 3s, 5s.
	rows := []struct {
		id               int
		start, completed time.Duration
		cost             topology.Bandwidth
		evals            int
		failed           int
	}{
		{1, 1 * time.Second, 2 * time.Second, 100 * topology.Mbps, 10, 0},
		{2, 3 * time.Second, 4 * time.Second, 200 * topology.Mbps, 20, 1},
		{3, 5 * time.Second, 9 * time.Second, 300 * topology.Mbps, 30, 0},
	}
	for _, r := range rows {
		c.Add(EventRecord{
			Event: flow.EventID(r.id), Kind: "test", Flows: 2, Failed: r.failed,
			Arrival: 0, Start: r.start, Completion: r.completed,
			Cost: r.cost, PlanEvals: r.evals,
		})
	}
	c.DecisionEvals = 5
	return c
}

func TestCollectorAggregates(t *testing.T) {
	c := sampleCollector()
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if got, want := c.AvgECT(), 5*time.Second; got != want {
		t.Errorf("AvgECT = %v, want %v", got, want)
	}
	if got, want := c.TailECT(), 9*time.Second; got != want {
		t.Errorf("TailECT = %v, want %v", got, want)
	}
	if got, want := c.TotalCost(), 600*topology.Mbps; got != want {
		t.Errorf("TotalCost = %v, want %v", got, want)
	}
	if got, want := c.TotalPlanEvals(), 65; got != want {
		t.Errorf("TotalPlanEvals = %d, want %d", got, want)
	}
	if got, want := c.AvgQueuingDelay(), 3*time.Second; got != want {
		t.Errorf("AvgQueuingDelay = %v, want %v", got, want)
	}
	if got, want := c.WorstQueuingDelay(), 5*time.Second; got != want {
		t.Errorf("WorstQueuingDelay = %v, want %v", got, want)
	}
	if got := c.TotalFailed(); got != 1 {
		t.Errorf("TotalFailed = %d, want 1", got)
	}
}

func TestEmptyCollector(t *testing.T) {
	c := NewCollector()
	if c.AvgECT() != 0 || c.TailECT() != 0 || c.TotalCost() != 0 ||
		c.AvgQueuingDelay() != 0 || c.WorstQueuingDelay() != 0 {
		t.Error("empty collector returned nonzero aggregates")
	}
	if c.PercentileECT(99) != 0 {
		t.Error("empty PercentileECT != 0")
	}
	if got := c.QueuingDelays(); len(got) != 0 {
		t.Errorf("QueuingDelays = %v, want empty", got)
	}
}

func TestPercentileECT(t *testing.T) {
	c := sampleCollector()
	tests := []struct {
		p    float64
		want time.Duration
	}{
		{100, 9 * time.Second},
		{50, 4 * time.Second},
		{1, 2 * time.Second},
		{0, 0},                 // empty prefix: no sample value
		{-5, 0},                // same for any non-positive p
		{150, 9 * time.Second}, // clamped down
	}
	for _, tt := range tests {
		if got := c.PercentileECT(tt.p); got != tt.want {
			t.Errorf("PercentileECT(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestPercentileSingleSample(t *testing.T) {
	c := NewCollector()
	c.Add(EventRecord{Event: 1, Arrival: 0, Start: time.Second, Completion: 3 * time.Second})
	for _, p := range []float64{1, 50, 100, 150} {
		if got, want := c.PercentileECT(p), 3*time.Second; got != want {
			t.Errorf("PercentileECT(%v) = %v, want %v", p, got, want)
		}
	}
	if got := c.PercentileECT(0); got != 0 {
		t.Errorf("PercentileECT(0) = %v, want 0", got)
	}
}

func TestSortedByArrival(t *testing.T) {
	c := NewCollector()
	// Completion order 3, 1, 2; arrival order 1, 2, 3 (2 and 3 tie on
	// arrival time and must fall back to event-ID order).
	c.Add(EventRecord{Event: 3, Arrival: 2 * time.Second, Start: 9 * time.Second, Completion: 10 * time.Second})
	c.Add(EventRecord{Event: 1, Arrival: 1 * time.Second, Start: 3 * time.Second, Completion: 4 * time.Second})
	c.Add(EventRecord{Event: 2, Arrival: 2 * time.Second, Start: 5 * time.Second, Completion: 6 * time.Second})
	got := c.SortedByArrival()
	for i, want := range []flow.EventID{1, 2, 3} {
		if got[i].Event != want {
			t.Errorf("SortedByArrival[%d] = event %d, want %d", i, got[i].Event, want)
		}
	}
	// The returned slice is a copy: mutating it must not affect the
	// collector's completion-order records.
	got[0].Cost = 999
	if c.Records()[0].Cost == 999 {
		t.Error("mutating SortedByArrival() copy changed collector state")
	}
}

func TestQueuingDelaysByArrivalOrder(t *testing.T) {
	c := NewCollector()
	// Completion order differs from arrival order.
	c.Add(EventRecord{Event: 2, Arrival: 2 * time.Second, Start: 10 * time.Second, Completion: 11 * time.Second})
	c.Add(EventRecord{Event: 1, Arrival: 1 * time.Second, Start: 4 * time.Second, Completion: 5 * time.Second})
	got := c.QueuingDelays()
	want := []time.Duration{3 * time.Second, 8 * time.Second}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("QueuingDelays[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRecordsIsCopy(t *testing.T) {
	c := sampleCollector()
	recs := c.Records()
	recs[0].Cost = 0
	if c.Records()[0].Cost == 0 {
		t.Error("mutating Records() copy changed collector state")
	}
}

func TestReductionAndSpeedup(t *testing.T) {
	if got := Reduction(10*time.Second, 4*time.Second); got != 0.6 {
		t.Errorf("Reduction = %v, want 0.6", got)
	}
	if got := Reduction(0, time.Second); got != 0 {
		t.Errorf("Reduction(0, x) = %v, want 0", got)
	}
	if got := ReductionB(100*topology.Mbps, 25*topology.Mbps); got != 0.75 {
		t.Errorf("ReductionB = %v, want 0.75", got)
	}
	if got := ReductionB(0, topology.Mbps); got != 0 {
		t.Errorf("ReductionB(0, x) = %v, want 0", got)
	}
	if got := Speedup(10*time.Second, 2*time.Second); got != 5 {
		t.Errorf("Speedup = %v, want 5", got)
	}
	if got := Speedup(time.Second, 0); got != 0 {
		t.Errorf("Speedup(x, 0) = %v, want 0", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "col-a", "b")
	tb.AddRow("x", 1.23456)
	tb.AddRow("longer-cell", 2)
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", tb.NumRows())
	}
	if tb.Title() != "Fig X" {
		t.Errorf("Title = %q", tb.Title())
	}
	out := tb.String()
	for _, want := range []string{"Fig X", "col-a", "1.235", "longer-cell", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("table has %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestTableWriteCSV(t *testing.T) {
	tb := NewTable("title ignored", "a", "b")
	tb.AddRow("x,with comma", 1.5)
	tb.AddRow("y", 2)
	var buf strings.Builder
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "a,b\n\"x,with comma\",1.500\ny,2\n"
	if got != want {
		t.Errorf("WriteCSV = %q, want %q", got, want)
	}
}

// reference recomputes every aggregate from the record list with the
// loops the accessors ran before the collector kept running totals: a
// pass over the records per metric, means as truncated integer division,
// maxima from zero. The O(1) accessors must agree with it bit for bit.
type reference struct {
	len, failed, planEvals int
	cost                   topology.Bandwidth
	avgECT, tailECT        time.Duration
	avgDelay, worstDelay   time.Duration
}

func recompute(records []EventRecord, decisionEvals int) reference {
	ref := reference{len: len(records), planEvals: decisionEvals}
	var ectSum, delaySum time.Duration
	for _, r := range records {
		ref.cost += r.Cost
		ref.planEvals += r.PlanEvals
		ref.failed += r.Failed
		ectSum += r.ECT()
		delaySum += r.QueuingDelay()
		if d := r.ECT(); d > ref.tailECT {
			ref.tailECT = d
		}
		if d := r.QueuingDelay(); d > ref.worstDelay {
			ref.worstDelay = d
		}
	}
	if n := time.Duration(len(records)); n > 0 {
		ref.avgECT, ref.avgDelay = ectSum/n, delaySum/n
	}
	return ref
}

func observed(c *Collector) reference {
	return reference{
		len: c.Len(), failed: c.TotalFailed(), planEvals: c.TotalPlanEvals(),
		cost:   c.TotalCost(),
		avgECT: c.AvgECT(), tailECT: c.TailECT(),
		avgDelay: c.AvgQueuingDelay(), worstDelay: c.WorstQueuingDelay(),
	}
}

// TestTotalsAreExact: for seeded random record streams — ordinary events
// mixed with zero-cost, failed-only and rolled-back ones — every O(1)
// accessor equals the recomputation from Records() after every Add, and
// keeps doing so once the records are drained or the totals restored
// into a fresh collector.
func TestTotalsAreExact(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCollector()
		c.DecisionEvals = rng.Intn(1000)
		if got, want := observed(c), recompute(nil, c.DecisionEvals); got != want {
			t.Fatalf("seed %d: empty collector reads %+v, want %+v", seed, got, want)
		}
		n := 1 + rng.Intn(300)
		for i := 0; i < n; i++ {
			arrival := time.Duration(rng.Int63n(int64(time.Hour)))
			start := arrival + time.Duration(rng.Int63n(int64(10*time.Minute)))
			r := EventRecord{
				Event: flow.EventID(i + 1), Kind: "prop",
				Flows: 1 + rng.Intn(100), Failed: rng.Intn(3),
				Arrival: arrival, Start: start,
				Completion: start + time.Duration(rng.Int63n(int64(time.Minute))),
				Cost:       topology.Bandwidth(rng.Int63n(int64(40 * topology.Gbps))),
				PlanEvals:  rng.Intn(5000),
			}
			switch rng.Intn(6) {
			case 0: // nothing to migrate, executed the instant it arrived
				r.Cost, r.Start, r.Completion = 0, arrival, arrival
			case 1: // every spec failed
				r.Flows, r.Failed, r.Cost = 0, 1+rng.Intn(50), 0
			case 2: // installs exhausted the retry budget
				r.Failed, r.Flows, r.Cost = r.Flows+r.Failed, 0, 0
				r.Retries, r.RolledBack = 3, true
			}
			c.Add(r)
			if got, want := observed(c), recompute(c.Records(), c.DecisionEvals); got != want {
				t.Fatalf("seed %d after %d records:\n totals    %+v\n recompute %+v", seed, i+1, got, want)
			}
		}

		all := c.Records()
		want := recompute(all, c.DecisionEvals)
		if drained := c.Drain(); !reflect.DeepEqual(drained, all) {
			t.Fatalf("seed %d: Drain returned %d records, want the %d added", seed, len(drained), len(all))
		}
		if len(c.Records()) != 0 || len(c.Drain()) != 0 {
			t.Fatalf("seed %d: records survive a Drain", seed)
		}
		if got := observed(c); got != want {
			t.Fatalf("seed %d: Drain moved the totals:\n after  %+v\n before %+v", seed, got, want)
		}
		fresh := NewCollector()
		fresh.DecisionEvals = c.DecisionEvals
		fresh.RestoreTotals(c.Totals())
		if got := observed(fresh); got != want {
			t.Fatalf("seed %d: restored totals read %+v, want %+v", seed, got, want)
		}
	}
}
