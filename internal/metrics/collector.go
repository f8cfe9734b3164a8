// Package metrics collects per-event outcomes of a simulation run and
// computes the evaluation metrics of Section V-A: total update cost,
// average ECT, tail ECT, total plan time, and event queuing delay
// (average, worst-case and per-event).
package metrics

import (
	"sort"
	"time"

	"netupdate/internal/flow"
	"netupdate/internal/topology"
)

// EventRecord captures one completed update event.
type EventRecord struct {
	// Event identifies the event.
	Event flow.EventID
	// Kind is the event's label.
	Kind string
	// Flows is the number of flows the event admitted; Failed counts
	// specs that could not be admitted.
	Flows  int
	Failed int
	// Arrival, Start and Completion are virtual times.
	Arrival    time.Duration
	Start      time.Duration
	Completion time.Duration
	// Cost is the realized Cost(U) — migrated traffic.
	Cost topology.Bandwidth
	// PlanEvals is the planning work attributable to this event
	// (decision probes are accounted separately on the Collector).
	PlanEvals int
	// Retries counts rule-install attempts that timed out (injected
	// faults) before the event's installs finally went through.
	Retries int
	// RolledBack marks an event whose installs exhausted the retry budget:
	// its bandwidth plan was reverted and all specs recorded as failed.
	RolledBack bool
}

// ECT is the event completion time (completion - arrival).
func (r EventRecord) ECT() time.Duration { return r.Completion - r.Arrival }

// QueuingDelay is the time spent waiting in the update queue.
func (r EventRecord) QueuingDelay() time.Duration { return r.Start - r.Arrival }

// Totals are the exact running aggregates over every record a Collector
// was ever given: what its O(1) accessors answer from. All integers,
// folded one record at a time, so each equals the value recomputed from
// the full record list bit for bit. The JSON spelling is the one older
// daemon checkpoints carried them in.
type Totals struct {
	Count     int                `json:"count"`
	Cost      topology.Bandwidth `json:"cost_bps"`
	ECT       time.Duration      `json:"ect_ns"`
	MaxECT    time.Duration      `json:"max_ect_ns"`
	Delay     time.Duration      `json:"queuing_delay_ns"`
	MaxDelay  time.Duration      `json:"max_queuing_delay_ns"`
	Failed    int                `json:"failed"`
	PlanEvals int                `json:"plan_evals"`
}

// Collector accumulates event records and scheduler-level counters over
// one simulation run.
type Collector struct {
	records []EventRecord
	totals  Totals
	// DecisionEvals counts planning work spent inside scheduler decisions
	// (LMTF/P-LMTF probes, Reorder scans).
	DecisionEvals int
	// PlanTime is the total simulated planning time of the run.
	PlanTime time.Duration
	// Makespan is the virtual time at which the run finished.
	Makespan time.Duration
	// Probes counts cost probes: every event a scheduler or the
	// co-schedule check planned without applying (core.Planner.Probe).
	Probes int
	// ProbeWallTime is real (not simulated) wall-clock time spent probing.
	ProbeWallTime time.Duration
	// FaultsInjected counts fault injections applied to the run.
	FaultsInjected int
	// RepairEvents counts update events minted from link/switch failures
	// (disrupted flows re-admitted through the normal scheduling path).
	RepairEvents int
	// FlowsDisrupted counts placed flows withdrawn by link/switch failures.
	FlowsDisrupted int
	// InstallRetries counts timed-out rule-install attempts that were
	// retried with backoff; InstallRollbacks counts events rolled back
	// after exhausting the retry budget.
	InstallRetries   int
	InstallRollbacks int
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Add appends a completed event record and folds it into the totals.
func (c *Collector) Add(r EventRecord) {
	c.records = append(c.records, r)
	t := &c.totals
	t.Count++
	t.Cost += r.Cost
	t.ECT += r.ECT()
	t.MaxECT = max(t.MaxECT, r.ECT())
	t.Delay += r.QueuingDelay()
	t.MaxDelay = max(t.MaxDelay, r.QueuingDelay())
	t.Failed += r.Failed
	t.PlanEvals += r.PlanEvals
}

// Drain hands over the records added since the last Drain, in completion
// order, and forgets them; the totals keep counting them. It is how a
// long-lived caller (the ctl server) keeps the collector from growing
// with its uptime. The simulator never drains, so its per-record views
// cover the whole run.
func (c *Collector) Drain() []EventRecord {
	out := c.records
	c.records = nil
	return out
}

// Len returns the number of events ever recorded.
func (c *Collector) Len() int { return c.totals.Count }

// Records returns a copy of the held records (every record, unless the
// caller drains) in completion order.
func (c *Collector) Records() []EventRecord {
	out := make([]EventRecord, len(c.records))
	copy(out, c.records)
	return out
}

// TotalCost sums Cost(U) over all events (Fig. 6a).
func (c *Collector) TotalCost() topology.Bandwidth { return c.totals.Cost }

// TotalPlanEvals sums per-event planning work plus decision probes.
func (c *Collector) TotalPlanEvals() int { return c.DecisionEvals + c.totals.PlanEvals }

// AvgECT is the mean event completion time (Figs. 4–7).
func (c *Collector) AvgECT() time.Duration { return mean(c.totals.ECT, c.totals.Count) }

// TailECT is the maximum event completion time. With the paper's queue
// sizes (10–50 events) the tail is effectively the worst case.
func (c *Collector) TailECT() time.Duration { return c.totals.MaxECT }

// PercentileECT returns the p-th percentile of ECTs using nearest-rank
// on the sorted sample. p is meaningful on (0, 100]; p <= 0 returns 0
// (an empty prefix has no value) and p > 100 clamps to the maximum.
func (c *Collector) PercentileECT(p float64) time.Duration {
	return percentile(c.ects(), p)
}

// AvgQueuingDelay is the mean event queuing delay (Fig. 8).
func (c *Collector) AvgQueuingDelay() time.Duration { return mean(c.totals.Delay, c.totals.Count) }

// WorstQueuingDelay is the maximum event queuing delay (Fig. 8).
func (c *Collector) WorstQueuingDelay() time.Duration { return c.totals.MaxDelay }

// SortedByArrival returns a copy of all records sorted by arrival time
// (ties broken by event ID). Callers that need arrival-ordered views
// share this one sort instead of re-sorting per metric.
func (c *Collector) SortedByArrival() []EventRecord {
	byArrival := c.Records()
	sort.SliceStable(byArrival, func(i, j int) bool {
		if byArrival[i].Arrival != byArrival[j].Arrival {
			return byArrival[i].Arrival < byArrival[j].Arrival
		}
		return byArrival[i].Event < byArrival[j].Event
	})
	return byArrival
}

// QueuingDelays returns each event's queuing delay indexed by arrival
// order (Fig. 9 plots these per event).
func (c *Collector) QueuingDelays() []time.Duration {
	byArrival := c.SortedByArrival()
	out := make([]time.Duration, len(byArrival))
	for i, r := range byArrival {
		out[i] = r.QueuingDelay()
	}
	return out
}

// TotalFailed counts flows that could not be admitted across all events.
func (c *Collector) TotalFailed() int { return c.totals.Failed }

func (c *Collector) ects() []time.Duration {
	out := make([]time.Duration, len(c.records))
	for i, r := range c.records {
		out[i] = r.ECT()
	}
	return out
}

// mean is total/n truncated toward zero, 0 for an empty sample.
func mean(total time.Duration, n int) time.Duration {
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// percentile is the nearest-rank percentile of ds. The contract: an
// empty sample or p <= 0 yields 0 (a non-positive percentile selects an
// empty prefix, so there is no sample value to report — not the minimum,
// which p just above 0 would give); p > 100 clamps to the maximum.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 || p <= 0 {
		return 0
	}
	if p > 100 {
		p = 100
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(float64(len(sorted))*p/100+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Reduction returns the fractional reduction of value relative to base:
// 1 - value/base (0 when base is 0). The paper reports most results as
// reductions against FIFO.
func Reduction(base, value time.Duration) float64 {
	if base == 0 {
		return 0
	}
	return 1 - float64(value)/float64(base)
}

// ReductionB is Reduction for bandwidth-valued metrics (total cost).
func ReductionB(base, value topology.Bandwidth) float64 {
	if base == 0 {
		return 0
	}
	return 1 - float64(value)/float64(base)
}

// Speedup returns base/value (how many times faster value is), 0 when
// value is 0. The paper's "up to 10x faster" claims are speedups.
func Speedup(base, value time.Duration) float64 {
	if value == 0 {
		return 0
	}
	return float64(base) / float64(value)
}
