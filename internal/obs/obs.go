// Package obs is the observability layer: structured event-lifecycle
// traces and live metrics for the simulator and the updated daemon.
//
// It has two halves:
//
//   - A trace model (Record and its payloads) stamped exclusively with the
//     simulation's virtual clock: one span per event lifecycle (arrival →
//     queued → probed → planned → installing → complete) and one round
//     record per scheduling decision, carrying the α+1 sampled candidates,
//     each probe's cost/evals/admittable flows, the chosen head, the P-LMTF
//     co-scheduled set and the per-lane resource claims. Records flow
//     through a pluggable Sink (JSONL file, ring buffer, or nothing).
//     Because no wall-clock value ever enters a record, traces from equal
//     seeds are byte-identical and double as determinism fixtures.
//
//   - Live metrics (Counter, Gauge, FloatGauge, Histogram, Distribution in
//     a Registry) updated by the engine each round and scraped lock-free
//     from other goroutines; Handler serves them as Prometheus text,
//     expvar JSON and pprof endpoints.
//
// The whole layer is optional: a nil *Tracer on the engine reduces every
// instrumentation hook to a single nil check.
//
// Package obs depends only on the standard library and on no other
// netupdate package, so every layer of the system can use it.
package obs

// Record kinds.
const (
	// KindRun opens a traced simulation run.
	KindRun = "run"
	// KindArrival marks an event entering the update queue.
	KindArrival = "arrival"
	// KindSpan closes an event lifecycle (emitted at completion).
	KindSpan = "span"
	// KindRound reports one scheduling round.
	KindRound = "round"
	// KindFault marks a fault injection being applied to the run.
	KindFault = "fault"
	// KindStage is a stage transition of the latency span pipeline.
	// Unlike every other kind, stage records carry wall-clock fields and
	// therefore flow ONLY through the separate span channel, never
	// through a virtual-clock trace sink (see span.go).
	KindStage = "stage"
)

// Record is one trace entry. Exactly one payload pointer is non-nil,
// matching Kind. VT is the virtual clock in nanoseconds at emission; no
// trace-channel record ever carries wall-clock time, which is what makes
// traces reproducible byte-for-byte across runs and probe-concurrency
// settings. The single exception is KindStage: its payload carries wall
// clocks by design and is confined to the separate, explicitly
// non-deterministic span channel (SpanRecorder) — it never reaches a
// virtual-clock trace sink.
type Record struct {
	Kind string `json:"k"`
	VT   int64  `json:"vt"`
	// Shard attributes the record to one engine of a sharded deployment
	// (1-based). Engines emit it as zero — per-shard trace streams stay
	// byte-identical to an unsharded run's — and the gateway stamps it
	// when fanning per-shard traces into one aggregate stream.
	Shard int `json:"shard,omitempty"`

	Run     *RunRecord     `json:"run,omitempty"`
	Arrival *ArrivalRecord `json:"arrival,omitempty"`
	Round   *RoundRecord   `json:"round,omitempty"`
	Span    *SpanRecord    `json:"span,omitempty"`
	Fault   *FaultRecord   `json:"fault,omitempty"`
	Stage   *StageRecord   `json:"stage,omitempty"`
}

// RunRecord opens a run: one per Engine.Run with a tracer attached.
type RunRecord struct {
	// Scheduler is the policy name ("lmtf(a=4)", ...).
	Scheduler string `json:"scheduler"`
	// Events is the number of events submitted to the run (0 for
	// incremental/daemon use, where events arrive over time).
	Events int `json:"events"`
}

// ArrivalRecord marks an event entering the update queue.
type ArrivalRecord struct {
	Event int64  `json:"event"`
	Kind  string `json:"kind,omitempty"`
	Flows int    `json:"flows"`
	// QueueDepth is the queue length just after this arrival.
	QueueDepth int `json:"queue_depth"`
}

// ProbeOutcome is one cost probe made while deciding a round: a sampled
// candidate (LMTF/P-LMTF), a full-queue scan entry (Reorder), or an
// opportunistic re-probe.
type ProbeOutcome struct {
	Event int64 `json:"event"`
	// CostBps is the probed Cost(U) in bits/s.
	CostBps int64 `json:"cost_bps"`
	// Evals is the planning work the probe reported.
	Evals int `json:"evals"`
	// Admittable counts the event's flows that could be admitted.
	Admittable int `json:"admittable"`
}

// CoSchedule reports one opportunistic co-scheduling attempt of a round
// (P-LMTF): the re-probe of a candidate after the head committed, and
// whether it ran in the round.
type CoSchedule struct {
	Probe ProbeOutcome `json:"probe"`
	// AloneAdmittable is the candidate's admission headroom before the
	// head executed; the executor commits the candidate only if the
	// re-probe admits at least as many flows.
	AloneAdmittable int `json:"alone_admittable"`
	// Committed reports whether the event actually ran in this round.
	Committed bool `json:"committed"`
}

// LaneClaim is the resources one executed lane of a round claimed.
type LaneClaim struct {
	Event int64 `json:"event"`
	// Flows admitted and specs failed by the execution.
	Flows  int `json:"flows"`
	Failed int `json:"failed"`
	// CostBps is the realized Cost(U) in bits/s (migrated traffic).
	CostBps int64 `json:"cost_bps"`
	// Evals is the planning work of the committing execution.
	Evals int `json:"evals"`
	// CompletionVT is the lane's completion virtual time (ns).
	CompletionVT int64 `json:"completion_vt"`
	// Retries counts injected rule-install timeouts the lane absorbed
	// before its installs succeeded; RolledBack marks a lane whose
	// installs exhausted the retry budget and was fully reverted.
	Retries    int  `json:"retries,omitempty"`
	RolledBack bool `json:"rolled_back,omitempty"`
}

// RoundRecord reports one scheduling round. Its VT is the round start.
type RoundRecord struct {
	// Round numbers rounds from 1 within a run.
	Round int64 `json:"round"`
	// QueueDepth is the queue length when the decision was made.
	QueueDepth int `json:"queue_depth"`
	// Candidates are the probes behind the decision, in sampled order
	// (LMTF: head + α samples; Reorder: whole queue; FIFO: empty).
	Candidates []ProbeOutcome `json:"candidates,omitempty"`
	// Head is the chosen event.
	Head int64 `json:"head"`
	// DecisionEvals is the total planning work of the decision.
	DecisionEvals int `json:"decision_evals"`
	// CoScheduled lists the round's opportunistic attempts (P-LMTF).
	CoScheduled []CoSchedule `json:"co_scheduled,omitempty"`
	// Claims lists executed lanes (head first, then committed
	// co-schedules in arrival order).
	Claims []LaneClaim `json:"claims,omitempty"`
	// EndVT is the round barrier: the virtual time when every lane of
	// the round has completed.
	EndVT int64 `json:"end_vt"`
}

// SpanRecord closes one event's lifecycle; emitted when the event
// completes. Together with the event's ArrivalRecord and the round
// records that sampled it, it reconstructs the full lifecycle
// arrival → queued → probed → planned → installing → complete.
type SpanRecord struct {
	Event int64  `json:"event"`
	Kind  string `json:"kind,omitempty"`
	// Round is the round that executed the event.
	Round int64 `json:"round"`
	// ArrivalVT/StartVT/CompletionVT are the lifecycle timestamps (ns,
	// virtual clock): queued at ArrivalVT, planned+installing from
	// StartVT, complete at CompletionVT.
	ArrivalVT    int64 `json:"arrival_vt"`
	StartVT      int64 `json:"start_vt"`
	CompletionVT int64 `json:"completion_vt"`
	// QueuingNs and ECTNs are the derived per-event metrics (Figs. 8–9
	// and 4–7 respectively).
	QueuingNs int64 `json:"queuing_ns"`
	ECTNs     int64 `json:"ect_ns"`
	// Flows admitted, specs failed, and the realized Cost(U).
	Flows   int   `json:"flows"`
	Failed  int   `json:"failed"`
	CostBps int64 `json:"cost_bps"`
	// Opportunistic reports whether the event ran as a co-scheduled
	// lane rather than as the round head.
	Opportunistic bool `json:"opportunistic,omitempty"`
	// Retries counts injected rule-install timeouts absorbed before the
	// event's installs succeeded; RolledBack marks an event whose
	// installs exhausted the retry budget and whose bandwidth plan was
	// reverted (all specs then count as failed).
	Retries    int  `json:"retries,omitempty"`
	RolledBack bool `json:"rolled_back,omitempty"`
}

// FaultRecord reports one applied fault injection.
type FaultRecord struct {
	// Action is the fault kind ("link-down", "install-timeout", ...).
	Action string `json:"action"`
	// Link / Node identify the target for link and switch faults.
	Link int `json:"link,omitempty"`
	Node int `json:"node,omitempty"`
	// FlowsAffected counts placed flows withdrawn by the failure.
	FlowsAffected int `json:"flows_affected,omitempty"`
	// RepairEvent is the ID of the update event minted to re-admit the
	// disrupted flows (0 when none was needed).
	RepairEvent int64 `json:"repair_event,omitempty"`
	// LinksDown is the total number of failed links after this injection.
	LinksDown int `json:"links_down"`
	// Times is the armed timeout count for install-timeout injections.
	Times int `json:"times,omitempty"`
}

// Tracer binds a Sink and a SimMetrics set; either may be nil. The
// engine's instrumentation hooks go through a *Tracer, and a nil *Tracer
// disables the whole layer at the cost of one pointer check per hook.
type Tracer struct {
	sink Sink
	met  *SimMetrics
}

// NewTracer returns a tracer emitting to sink (nil = no trace records)
// and updating met (nil = no live metrics).
func NewTracer(sink Sink, met *SimMetrics) *Tracer {
	return &Tracer{sink: sink, met: met}
}

// Sink returns the tracer's sink (possibly nil).
func (t *Tracer) Sink() Sink { return t.sink }

// Metrics returns the tracer's live metric set (possibly nil).
func (t *Tracer) Metrics() *SimMetrics { return t.met }

// emit sends a record to the sink, if any.
func (t *Tracer) emit(r *Record) {
	if t.sink != nil {
		t.sink.Emit(r)
	}
}

// RunStart records the beginning of a traced run.
func (t *Tracer) RunStart(vt int64, scheduler string, events int) {
	t.emit(&Record{Kind: KindRun, VT: vt, Run: &RunRecord{Scheduler: scheduler, Events: events}})
}

// EventArrival records an event entering the update queue and refreshes
// the queue-depth gauge.
func (t *Tracer) EventArrival(vt int64, a ArrivalRecord) {
	if t.met != nil {
		t.met.QueueDepth.Set(int64(a.QueueDepth))
	}
	t.emit(&Record{Kind: KindArrival, VT: vt, Arrival: &a})
}

// Round records a completed scheduling round and bumps round/event
// counters. Span records for the round's lanes are emitted separately
// (before the round record) via EventComplete.
func (t *Tracer) Round(vt int64, r *RoundRecord) {
	if t.met != nil {
		t.met.Rounds.Inc()
		t.met.QueueDepth.Set(int64(r.QueueDepth - len(r.Claims)))
	}
	t.emit(&Record{Kind: KindRound, VT: vt, Round: r})
}

// EventComplete records an event's lifecycle span and feeds the ECT and
// queuing-delay histograms.
func (t *Tracer) EventComplete(vt int64, s SpanRecord) {
	if t.met != nil {
		t.met.EventsDone.Inc()
		t.met.FlowsAdmitted.Add(int64(s.Flows))
		t.met.FlowsFailed.Add(int64(s.Failed))
		t.met.ECT.Observe(s.ECTNs)
		t.met.QueuingDelay.Observe(s.QueuingNs)
		if s.Retries > 0 {
			t.met.InstallRetries.Add(int64(s.Retries))
		}
		if s.RolledBack {
			t.met.InstallRollbacks.Inc()
		}
	}
	t.emit(&Record{Kind: KindSpan, VT: vt, Span: &s})
}

// Fault records an applied fault injection and bumps the recovery
// counters.
func (t *Tracer) Fault(vt int64, f FaultRecord) {
	if t.met != nil {
		t.met.FaultsInjected.Inc()
		t.met.LinksDown.Set(int64(f.LinksDown))
		if f.RepairEvent != 0 {
			t.met.RepairEvents.Inc()
		}
		t.met.FlowsDisrupted.Add(int64(f.FlowsAffected))
	}
	t.emit(&Record{Kind: KindFault, VT: vt, Fault: &f})
}

// Flush flushes the sink, if any.
func (t *Tracer) Flush() error {
	if t.sink != nil {
		return t.sink.Flush()
	}
	return nil
}
