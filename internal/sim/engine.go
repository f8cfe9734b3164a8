package sim

import (
	"fmt"
	"sort"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/fault"
	"netupdate/internal/flow"
	"netupdate/internal/metrics"
	"netupdate/internal/migration"
	"netupdate/internal/obs"
	"netupdate/internal/sched"
	"netupdate/internal/trace"
)

// Engine simulates event-level scheduling: each round it asks the
// scheduler for a decision, executes the head event (plus any feasible
// opportunistic events in parallel lanes, for P-LMTF) and advances the
// virtual clock to the round's completion. Rounds are barriers: the next
// decision happens only after every event of the round completes, matching
// the paper's "the network executes one round of updates at a time".
type Engine struct {
	cfg       Config
	planner   *core.Planner
	scheduler sched.Scheduler

	clock     time.Duration
	queue     *sched.Queue
	pending   []*core.Event
	releases  releaseHeap
	collector *metrics.Collector
	churn     *churner

	// injector replays a scripted fault schedule against the virtual
	// clock (nil = no faults); timeouts holds armed install-timeout
	// injections waiting for their event to execute.
	injector *fault.Injector
	timeouts []timeoutArm
	// dropped marks flows withdrawn by failures whose scheduled releases
	// must become no-ops; repairSeq numbers minted repair events.
	dropped   map[flow.ID]struct{}
	repairSeq int64

	// probeBase is the probe-counter baseline restored from a checkpoint
	// (zero otherwise): the recovered planner counts from zero, so
	// syncProbeStats adds the pre-crash totals back in.
	probeBase ProbeBase

	// obs is the optional observability tracer (nil = disabled; every
	// instrumentation hook below reduces to one nil check).
	obs *obs.Tracer
	// spans is the optional stage-level latency recorder (nil = disabled).
	// Unlike obs it records wall clocks too, so its records ride the span
	// channel only — never a deterministic trace sink.
	spans  *obs.SpanRecorder
	rounds int64
	// curRound accumulates the round record being built (obs enabled
	// only); runLane appends its claim and span to it.
	curRound *obs.RoundRecord
	// roundLog receives the outcome of each round that applied a plan
	// (nil = none kept); see SetRoundLog.
	roundLog func(*RoundLog)
}

// NewEngine builds an engine. The planner owns the (pre-filled) network;
// cfg zero fields take documented defaults.
func NewEngine(planner *core.Planner, scheduler sched.Scheduler, cfg Config) *Engine {
	return &Engine{
		cfg:       cfg.withDefaults(),
		planner:   planner,
		scheduler: scheduler,
		queue:     sched.NewQueue(),
		collector: metrics.NewCollector(),
	}
}

// SetTracer attaches an observability tracer (nil detaches). Call before
// Run or the first Step. Attaching also turns on per-candidate probe
// recording for schedulers that support it, so round records carry the
// sampled candidates' costs.
func (e *Engine) SetTracer(t *obs.Tracer) {
	e.obs = t
	if pr, ok := e.scheduler.(sched.ProbeRecorder); ok {
		pr.SetRecordProbes(t != nil)
	}
}

// Tracer returns the attached tracer, or nil.
func (e *Engine) Tracer() *obs.Tracer { return e.obs }

// SetSpans attaches a stage-level latency recorder (nil detaches). The
// ctl server attaches it after WAL replay, so replayed rounds emit no
// span records and recovery stays byte-deterministic.
func (e *Engine) SetSpans(sr *obs.SpanRecorder) { e.spans = sr }

// Run simulates the given events to completion and returns the collected
// metrics. Events may arrive at any time; the common experimental setup
// enqueues all of them at time zero.
func (e *Engine) Run(events []*core.Event) (*metrics.Collector, error) {
	e.pending = make([]*core.Event, len(events))
	copy(e.pending, events)
	sort.SliceStable(e.pending, func(i, j int) bool {
		return e.pending[i].Arrival < e.pending[j].Arrival
	})
	if e.obs != nil {
		e.obs.RunStart(int64(e.clock), e.scheduler.Name(), len(events))
	}

	for {
		if err := e.applyDueFaults(); err != nil {
			return nil, err
		}
		e.admitArrivals()
		if e.queue.Len() == 0 {
			next, ok := e.nextWakeup()
			if !ok {
				break
			}
			// Idle until the next arrival or scripted fault.
			e.advanceTo(next)
			continue
		}
		if _, err := e.Step(); err != nil {
			return nil, err
		}
	}
	e.drainReleases()
	e.collector.Makespan = e.clock
	return e.collector, nil
}

// Enqueue adds an event to the live update queue. It is the incremental
// alternative to Run for callers (like the ctl server) that receive events
// over time; pair it with Step. The event's Arrival should already be set
// (typically to Clock()).
func (e *Engine) Enqueue(ev *core.Event) {
	e.queue.Push(ev)
	e.traceArrival(ev)
}

// EnqueueBatch adds a batch of events to the live update queue in one
// bulk push (sched.Queue.PushBatch), in slice order. It is the batched
// ingest path of the ctl server: for a fixed admission order it is
// observationally identical to calling Enqueue on each event — the same
// arrival trace records with the same per-event queue depths — so traces
// are byte-identical with batching on or off.
func (e *Engine) EnqueueBatch(evs []*core.Event) {
	if len(evs) == 0 {
		return
	}
	e.queue.PushBatch(evs)
	if e.obs == nil {
		return
	}
	base := e.queue.Len() - len(evs)
	for i, ev := range evs {
		e.obs.EventArrival(int64(ev.Arrival), obs.ArrivalRecord{
			Event:      int64(ev.ID),
			Kind:       ev.Kind,
			Flows:      ev.NumFlows(),
			QueueDepth: base + i + 1,
		})
	}
}

// Step runs one scheduling round if the queue is non-empty and reports
// whether it did any work. Scripted faults due at the current clock are
// applied first; a failure can therefore mint a repair event and make an
// otherwise empty queue schedulable.
func (e *Engine) Step() (bool, error) {
	if err := e.applyDueFaults(); err != nil {
		return false, err
	}
	if e.queue.Len() == 0 {
		return false, nil
	}
	if err := e.runRound(); err != nil {
		return false, err
	}
	return true, nil
}

// nextWakeup returns the next virtual time something happens while the
// queue is idle: a pending arrival or a scripted fault injection.
func (e *Engine) nextWakeup() (time.Duration, bool) {
	next, ok := time.Duration(0), false
	if len(e.pending) > 0 {
		next, ok = e.pending[0].Arrival, true
	}
	if at, faultOK := e.nextFaultAt(); faultOK && (!ok || at < next) {
		next, ok = at, true
	}
	return next, ok
}

// installTime returns how long one admission's rule installation takes.
func (e *Engine) installTime(adm *migration.Result) time.Duration {
	return installDuration(e.cfg, e.planner.Network().Graph(), adm)
}

// Clock returns the current virtual time.
func (e *Engine) Clock() time.Duration { return e.clock }

// QueueLen returns the number of events waiting in the update queue.
func (e *Engine) QueueLen() int { return e.queue.Len() }

// Collector exposes the live metrics (shared state; read-only use).
func (e *Engine) Collector() *metrics.Collector { return e.collector }

// admitArrivals moves pending events whose arrival time has come into the
// update queue, as one bulk push (trace-equivalent to admitting them one
// at a time — see EnqueueBatch).
func (e *Engine) admitArrivals() {
	due := 0
	for due < len(e.pending) && e.pending[due].Arrival <= e.clock {
		due++
	}
	if due == 0 {
		return
	}
	e.EnqueueBatch(e.pending[:due])
	e.pending = e.pending[due:]
}

// traceArrival emits an arrival record for an event just queued.
func (e *Engine) traceArrival(ev *core.Event) {
	if e.obs == nil {
		return
	}
	e.obs.EventArrival(int64(ev.Arrival), obs.ArrivalRecord{
		Event:      int64(ev.ID),
		Kind:       ev.Kind,
		Flows:      ev.NumFlows(),
		QueueDepth: e.queue.Len(),
	})
}

// EnableChurn turns over background traffic during the run: every
// cfg.Interval of virtual time, cfg.Fraction of the background flows are
// replaced with fresh ones drawn from gen, holding utilization near the
// level it has when the run starts. Call before Run.
func (e *Engine) EnableChurn(gen *trace.Generator, cfg ChurnConfig) {
	e.churn = newChurner(e.planner.Network(), gen, cfg)
}

// advanceTo moves the clock forward, applying any flow releases and churn
// ticks that fall due on the way.
func (e *Engine) advanceTo(t time.Duration) {
	e.processReleases(t)
	if e.churn != nil {
		if err := e.churn.advance(t); err != nil {
			panic(fmt.Sprintf("sim: churn: %v", err))
		}
	}
	if t > e.clock {
		e.clock = t
	}
}

// processReleases removes event flows whose transfers finished by t.
// Flows a failure already dropped are skipped: their release became a
// no-op the moment the fault layer withdrew them.
func (e *Engine) processReleases(t time.Duration) {
	for len(e.releases) > 0 && e.releases[0].at <= t {
		rel := e.releases.pop()
		if _, gone := e.dropped[rel.f.ID]; gone {
			delete(e.dropped, rel.f.ID)
			continue
		}
		if err := e.planner.Network().Remove(rel.f); err != nil {
			panic(fmt.Sprintf("sim: releasing finished flow: %v", err))
		}
	}
}

// drainReleases applies all outstanding releases (end of run).
func (e *Engine) drainReleases() {
	e.processReleases(1<<62 - 1)
}

// runRound performs one scheduling round: the scheduler decides it and
// execRound carries it out.
func (e *Engine) runRound() error {
	probes := e.planner.ProbeStats().Probes
	decision, err := e.scheduler.Pick(e.queue, e.planner)
	if err != nil {
		return fmt.Errorf("sim: scheduling: %w", err)
	}
	r := round{
		evals:   decision.Evals,
		head:    decision.Head,
		plan:    decision.Plan,
		offered: decision.Opportunistic,
		log:     e.roundLog != nil && decision.Plan != nil && decision.Evals >= logEvalsPerFlow*len(decision.Head.Specs),
	}
	if e.obs != nil || e.spans != nil || r.log {
		r.candidates = probeOutcomes(decision.Probes)
	}
	if err := e.execRound(&r); err != nil {
		return err
	}
	if r.log {
		e.roundLog(&RoundLog{
			Round:         e.rounds,
			Start:         r.start,
			DecisionEvals: decision.Evals,
			Probes:        e.planner.ProbeStats().Probes - probes,
			Candidates:    r.candidates,
			CoScheduled:   r.outcomes,
			Lanes:         r.lanes,
		})
	}
	return nil
}

// logEvalsPerFlow is the planning work, in feasibility evaluations per
// flow of the head event, from which a round's decision is worth
// logging. Below it the decision is cheap to make again — small events
// on a fabric with room (gateway_mix: a median between 16 and 32) — and
// logging and applying the round would cost about what re-planning it
// saves; events that must migrate traffic clear it (paper_plan: 96 % of
// rounds).
const logEvalsPerFlow = 64

// RoundLog is one executed round's outcome, enough to execute the round
// again without deciding it: its number and start clock, the decision's
// trace fields and planning work, and the plan each lane applied.
type RoundLog struct {
	Round int64
	Start time.Duration
	// DecisionEvals is the planning work of the decision; Probes counts
	// the probes it and the co-schedule checks ran.
	DecisionEvals int
	Probes        int
	// Candidates are the decision's probes (recorded only while a
	// tracer is attached); CoScheduled the co-schedule checks after the
	// head, in order.
	Candidates  []obs.ProbeOutcome
	CoScheduled []obs.CoSchedule
	// Lanes holds the applied plans: the head's, then each committed
	// co-schedule's in order.
	Lanes []core.PlanRecord
}

// SetRoundLog registers fn to receive the outcome of every round whose
// decision carried a plan and cost at least logEvalsPerFlow evaluations
// per head flow (nil detaches) — what a log keeps so that ApplyRound can
// execute the round again without planning it.
func (e *Engine) SetRoundLog(fn func(*RoundLog)) { e.roundLog = fn }

// ApplyRound executes a logged round: the same round body as a decided
// one, with the decision, the co-schedule checks and the plans read from
// lr instead of made. It fails when lr is not the engine's next round, a
// lane's event is not queued, or a plan does not fit its event or no
// longer matches the network; after a failure past the checks (a plan
// that does not apply) the engine is unusable.
func (e *Engine) ApplyRound(lr *RoundLog) error {
	if err := e.applyDueFaults(); err != nil {
		return err
	}
	if lr.Round != e.rounds+1 || lr.Start != e.clock {
		return fmt.Errorf("sim: logged round %d starts at %v, engine is at round %d, %v",
			lr.Round, lr.Start, e.rounds+1, e.clock)
	}
	var committed []int64
	for _, co := range lr.CoScheduled {
		if co.Committed {
			committed = append(committed, co.Probe.Event)
		}
	}
	if len(lr.Lanes) != 1+len(committed) {
		return fmt.Errorf("sim: logged round %d has %d lanes for %d committed co-schedules",
			lr.Round, len(lr.Lanes), len(committed))
	}
	plans := make([]*core.Plan, len(lr.Lanes))
	for i := range lr.Lanes {
		rec := &lr.Lanes[i]
		if i > 0 && int64(rec.Event) != committed[i-1] {
			return fmt.Errorf("sim: logged round %d commits event %d with the plan of %d",
				lr.Round, committed[i-1], int64(rec.Event))
		}
		ev := e.queued(rec.Event)
		if ev == nil {
			return fmt.Errorf("sim: logged round %d runs event %d, which is not queued", lr.Round, int64(rec.Event))
		}
		pl, err := e.planner.PlanOf(ev, rec)
		if err != nil {
			return fmt.Errorf("sim: logged round %d: %w", lr.Round, err)
		}
		plans[i] = pl
	}
	return e.execRound(&round{
		evals:      lr.DecisionEvals,
		probes:     lr.Probes,
		candidates: lr.Candidates,
		head:       plans[0].Event(),
		plan:       plans[0],
		checks:     lr.CoScheduled,
		logged:     plans[1:],
	})
}

// queued returns the queued event with the given ID, or nil.
func (e *Engine) queued(id flow.EventID) *core.Event {
	for i := range e.queue.Len() {
		if ev := e.queue.At(i); ev.ID == id {
			return ev
		}
	}
	return nil
}

// round is one scheduling round as execRound carries it out: decided
// (offered holds the co-schedule candidates, each probed again once the
// lanes before it have run) or logged (checks and logged hold the
// checks' outcomes and the committed co-schedules' plans).
type round struct {
	evals      int
	candidates []obs.ProbeOutcome
	head       *core.Event
	plan       *core.Plan

	offered []sched.Candidate

	// probes counts a logged round's probes, which the planner does not
	// run again.
	probes int
	checks []obs.CoSchedule
	logged []*core.Plan

	// log makes a decided round keep its lanes' plans; outcomes collects
	// the co-schedule checks when the round is logged or traced.
	log      bool
	lanes    []core.PlanRecord
	outcomes []obs.CoSchedule
	start    time.Duration
}

// execRound is the one round body: plan-time and probe accounting, the
// head's lane, the co-schedule checks and their lanes, the barrier and
// the trace record.
func (e *Engine) execRound(r *round) error {
	e.collector.DecisionEvals += r.evals
	e.addPlanTime(e.cfg.planTime(r.evals))

	e.rounds++
	if e.obs != nil {
		e.curRound = &obs.RoundRecord{
			Round:         e.rounds,
			QueueDepth:    e.queue.Len(),
			Head:          int64(r.head.ID),
			DecisionEvals: r.evals,
			Candidates:    r.candidates,
		}
	}

	roundStart := e.clock
	roundEnd := roundStart
	r.start = roundStart

	if e.spans != nil {
		for _, p := range r.candidates {
			e.spans.Probed(p.Event, e.rounds, int64(roundStart))
		}
	}

	end, err := e.runLane(r.head, r.plan, roundStart)
	if err != nil {
		return err
	}
	roundEnd = max(roundEnd, end)
	if r.log {
		r.lanes = append(r.lanes, r.plan.Record())
	}

	// Opportunistic co-scheduling (P-LMTF): in arrival order, commit any
	// candidate whose admittability is unchanged on top of the lanes
	// already committed — running together must not interfere (flows that
	// fail either way, e.g. on saturated access links, do not block it).
	// A committed candidate applies the plan of this post-head probe; a
	// logged round reads the check and the committed plan instead.
	for i := range len(r.offered) + len(r.checks) {
		var co obs.CoSchedule
		var pl *core.Plan
		if r.checks != nil {
			if co = r.checks[i]; co.Committed {
				pl, r.logged = r.logged[0], r.logged[1:]
			}
		} else {
			cand := r.offered[i]
			pl, err = e.planner.ProbePlan(cand.Event)
			if err != nil {
				return fmt.Errorf("sim: opportunistic probe of %v: %w", cand.Event, err)
			}
			co = obs.CoSchedule{
				Probe: obs.ProbeOutcome{
					Event:      int64(cand.Event.ID),
					CostBps:    int64(pl.Cost),
					Evals:      pl.Evals,
					Admittable: pl.Admittable,
				},
				AloneAdmittable: cand.AloneAdmittable,
				Committed:       pl.Admittable >= cand.AloneAdmittable,
			}
		}
		e.collector.DecisionEvals += co.Probe.Evals
		e.addPlanTime(e.cfg.planTime(co.Probe.Evals))
		if e.spans != nil {
			e.spans.Probed(co.Probe.Event, e.rounds, int64(roundStart))
		}
		if e.curRound != nil || r.log {
			r.outcomes = append(r.outcomes, co)
		}
		if !co.Committed {
			continue
		}
		end, err := e.runLane(pl.Event(), pl, roundStart)
		if err != nil {
			return err
		}
		roundEnd = max(roundEnd, end)
		if r.log {
			r.lanes = append(r.lanes, pl.Record())
		}
	}

	e.advanceTo(roundEnd)
	e.probeBase.Probes += r.probes
	e.syncProbeStats()
	if rr := e.curRound; rr != nil {
		rr.CoScheduled = r.outcomes
		rr.EndVT = int64(roundEnd)
		e.obs.Round(int64(roundStart), rr)
		e.curRound = nil
	}
	return nil
}

// probeOutcomes converts a decision's probe records for the trace and
// the round log (nil when the scheduler recorded none).
func probeOutcomes(probes []sched.ProbeRecord) []obs.ProbeOutcome {
	if len(probes) == 0 {
		return nil
	}
	out := make([]obs.ProbeOutcome, len(probes))
	for i, p := range probes {
		out[i] = obs.ProbeOutcome{
			Event:      int64(p.Event.ID),
			CostBps:    int64(p.Cost),
			Evals:      p.Evals,
			Admittable: p.Admittable,
		}
	}
	return out
}

// addPlanTime charges simulated planning time to the collector and the
// live counter alike.
func (e *Engine) addPlanTime(d time.Duration) {
	e.collector.PlanTime += d
	if e.obs != nil && e.obs.Metrics() != nil {
		e.obs.Metrics().PlanTime.Add(int64(d))
	}
}

// syncProbeStats publishes the run's probe totals — the planner's
// counters on top of probeBase — to the collector and the live gauge.
func (e *Engine) syncProbeStats() {
	st := e.planner.ProbeStats()
	e.collector.Probes = e.probeBase.Probes + st.Probes
	e.collector.ProbeWallTime = time.Duration(e.probeBase.WallTimeNs) + st.WallTime
	if e.obs != nil {
		if m := e.obs.Metrics(); m != nil {
			m.Probes.Set(int64(e.collector.Probes))
		}
	}
}

// runLane executes one event starting at laneStart and returns the lane's
// completion time. The event is removed from the queue, executed against
// the network — by applying plan, its plan from a probe just made, or
// when nil by planning it afresh — its flows' releases scheduled, and its
// record collected.
func (e *Engine) runLane(ev *core.Event, plan *core.Plan, laneStart time.Duration) (time.Duration, error) {
	if !e.queue.Remove(ev) {
		return 0, fmt.Errorf("sim: %v scheduled but not queued", ev)
	}
	if e.spans != nil {
		e.spans.ExecStart(int64(ev.ID), e.rounds, int64(laneStart))
	}
	var res *core.ExecResult
	var err error
	if plan != nil {
		res, err = e.planner.Apply(plan)
	} else {
		res, err = e.planner.Execute(ev)
	}
	if err != nil {
		return 0, fmt.Errorf("sim: executing %v: %w", ev, err)
	}
	// Planning is pipelined with the previous round's execution: its time
	// is accounted, not charged to the lane.
	e.addPlanTime(e.cfg.planTime(res.Evals))
	migTime := e.cfg.migrationTime(res.Cost)

	// Armed install-timeout injections: each timed-out attempt burns one
	// full install pass, then waits the capped exponential backoff before
	// the next try. Past the retry budget the whole event is rolled back
	// (bandwidth plan reverted, every spec recorded failed).
	failTimes := e.takeTimeout(ev.ID)
	rolledBack := failTimes > maxInstallRetries
	retries := failTimes
	if rolledBack {
		retries = maxInstallRetries
	}
	var retryDelay time.Duration
	if failTimes > 0 {
		var installSum time.Duration
		for _, adm := range res.Admitted {
			installSum += e.installTime(adm)
		}
		timedOut := retries
		if rolledBack {
			timedOut++ // the final attempt timed out too; nothing succeeded
		}
		retryDelay = time.Duration(timedOut)*installSum + totalBackoff(retries)
		e.collector.InstallRetries += retries
	}

	completion := laneStart + migTime + retryDelay
	flows, failed := len(res.Admitted), res.Failed
	if rolledBack {
		if err := e.planner.RollbackExec(res); err != nil {
			return 0, fmt.Errorf("sim: rolling back %v: %w", ev, err)
		}
		ev.FailedSpecs = ev.Specs
		flows, failed = 0, len(ev.Specs)
		e.collector.InstallRollbacks++
	} else {
		cursor := completion
		for _, adm := range res.Admitted {
			cursor += e.installTime(adm)
			installed := cursor
			if installed > completion {
				completion = installed
			}
			if !e.cfg.KeepFlows {
				e.releases.push(release{at: installed + adm.Flow.TransferTime(), f: adm.Flow})
			}
		}
	}

	ev.Start = laneStart
	ev.Started = true
	ev.Completion = completion
	ev.Done = true
	if e.spans != nil {
		e.spans.Completed(int64(ev.ID), e.rounds, int64(completion), flows, failed, retries, rolledBack)
	}
	e.collector.Add(metrics.EventRecord{
		Event:      ev.ID,
		Kind:       ev.Kind,
		Flows:      flows,
		Failed:     failed,
		Arrival:    ev.Arrival,
		Start:      ev.Start,
		Completion: ev.Completion,
		Cost:       res.Cost,
		PlanEvals:  res.Evals,
		Retries:    retries,
		RolledBack: rolledBack,
	})
	if rr := e.curRound; rr != nil {
		opportunistic := len(rr.Claims) > 0 // the head's claim is always first
		rr.Claims = append(rr.Claims, obs.LaneClaim{
			Event:        int64(ev.ID),
			Flows:        flows,
			Failed:       failed,
			CostBps:      int64(res.Cost),
			Evals:        res.Evals,
			CompletionVT: int64(completion),
			Retries:      retries,
			RolledBack:   rolledBack,
		})
		e.obs.EventComplete(int64(completion), obs.SpanRecord{
			Event:         int64(ev.ID),
			Kind:          ev.Kind,
			Round:         e.rounds,
			ArrivalVT:     int64(ev.Arrival),
			StartVT:       int64(ev.Start),
			CompletionVT:  int64(ev.Completion),
			QueuingNs:     int64(ev.QueuingDelay()),
			ECTNs:         int64(ev.ECT()),
			Flows:         flows,
			Failed:        failed,
			CostBps:       int64(res.Cost),
			Opportunistic: opportunistic,
			Retries:       retries,
			RolledBack:    rolledBack,
		})
	}
	return completion, nil
}
