package ctl

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/fault"
	"netupdate/internal/flow"
	"netupdate/internal/obs"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
	"netupdate/internal/snapshot"
	"netupdate/internal/topology"
	"netupdate/internal/wal"
)

// Server owns live network state and schedules submitted update events.
// All state is confined to one goroutine (the state loop); connection
// handlers communicate with it through a command channel, so the sim
// engine and network never see concurrent access.
type Server struct {
	typed // the typed Backend methods, over call

	engine    *sim.Engine
	planner   *core.Planner
	sched     sched.Scheduler
	scheduler string
	numNodes  int

	// Telemetry: every server carries a ring-buffered tracer (OpTrace
	// reads it in the state loop) and a metrics registry whose values are
	// atomics, safe to scrape over HTTP while the state loop runs. The
	// instantaneous gauges are computed on the loop when they are read
	// (refreshGauges); utilScratch backs their per-link pass.
	registry    *obs.Registry
	ring        *obs.RingSink
	ingest      *obs.IngestMetrics
	utilScratch []float64

	// replay backs the plans of a logged round applyRound rebuilds.
	replay replayScratch

	// Latency span pipeline: the recorder is state-loop confined (like
	// the engine it instruments); stage records go out through a bounded
	// async sink so a slow span consumer can never backpressure the loop.
	// lat and spans always exist — histograms feed /metrics and Stats
	// even when no span sink is configured.
	lat       *obs.LatencyMetrics
	spans     *obs.SpanRecorder
	spanSink  obs.Sink // Config.SpanSink (nil = none)
	spanAsync *obs.AsyncSink

	// watermark bounds the update queue: submissions arriving at or past
	// it are rejected with a typed overload response instead of queued.
	watermark int

	// Event table: the queued events — admitted or minted from a fault,
	// not yet executed. The round that completes an event retires it into
	// done, the window of the last doneWindow completions (done.go).
	// State-loop confined once the loop runs; fields (not loop locals) so
	// WAL recovery can seed them beforehand.
	events map[int64]*core.Event
	done   *doneRing
	nextID int64

	// journal is the durable log under the loop and, with it, this
	// server's place in replication (nil without a WAL; every method the
	// loop calls is nil-safe). The loop appends what it admits, commits
	// in flush before any reply leaves, and checkpoints between batches.
	journal *journal
	// failStop is the loop's one answer to a durable write that did not
	// happen, or a round that broke: continuing would silently void the
	// recovery contract every ack rests on, so it takes the process down.
	// A field only so a test can watch it being called.
	failStop func(error)

	// shardID and idStride place this engine in a sharded deployment:
	// shard s of N mints event IDs s, s+N, s+2N, … so IDs are globally
	// unique across the fleet and a gateway can route status lookups by
	// (id-1) mod N. Unsharded servers keep shardID 0, stride 1 — the
	// historical ID sequence.
	shardID  int
	idStride int64

	// wire owns the accept loop, open-connection set and codec handling;
	// closing mirrors its shutdown channel for the state loop and the
	// replication goroutines.
	wire    *WireServer
	closing <-chan struct{}

	cmds chan command
	// loopStop tells the state loop's shutdown drain that every
	// connection handler has exited, so no further command can arrive
	// and the loop may return. Closed by Close after the wire drains.
	loopStop chan struct{}
	loop     sync.WaitGroup // state loop

	mu     sync.Mutex
	closed bool
}

// command is one request routed to the state loop.
type command struct {
	req Request
	// fn, when set, is a function to run on the loop (onLoop) instead
	// of a wire request; req is ignored.
	fn func() error
	// ingestWall is the server wall clock when the request was decoded
	// off the wire (span pipeline's ingest stamp).
	ingestWall int64
	reply      chan Response
}

// traceRingSize bounds the server's trace ring: enough for a few
// thousand rounds of history without unbounded growth.
const traceRingSize = 4096

// DefaultHighWatermark is the intake bound used when no option overrides
// it: past this many queued events, submissions are rejected with an
// overload response instead of growing the queue without bound.
const DefaultHighWatermark = 4096

// cmdBacklog is the command channel's buffer: large enough that a burst
// of connection handlers lands in one state-loop wakeup (and is admitted
// into the scheduler queue in bulk) instead of costing one wakeup each.
const cmdBacklog = 1024

// spanSinkDepth bounds the async span sink's ring: deep enough to absorb
// a burst of stage records while the consumer flushes, small enough that
// a stuck consumer costs bounded memory (overflow drops and counts).
const spanSinkDepth = 8192

// newServer builds a server from a validated Config without starting its
// state loop, so WAL recovery can replay history into the engine while
// it is still single-threaded.
func newServer(cfg Config) *Server {
	s := &Server{
		engine:    sim.NewEngine(cfg.Planner, cfg.Scheduler, cfg.Sim),
		planner:   cfg.Planner,
		sched:     cfg.Scheduler,
		scheduler: cfg.Scheduler.Name(),
		numNodes:  cfg.Planner.Network().Graph().NumNodes(),
		registry:  obs.NewRegistry(),
		ring:      obs.NewRingSink(traceRingSize),
		watermark: DefaultHighWatermark,
		spanSink:  cfg.SpanSink,
		failStop:  func(err error) { panic(err.Error()) },
		events:    make(map[int64]*core.Event),
		nextID:    1,
		idStride:  1,
		cmds:      make(chan command, cmdBacklog),
		loopStop:  make(chan struct{}),
	}
	s.typed.request = s.call
	if cfg.Watermark > 0 {
		s.watermark = cfg.Watermark
	}
	if sh := cfg.Shard; sh.ID > 0 {
		s.shardID = sh.ID
		s.idStride = int64(sh.Count)
		s.nextID = int64(sh.ID)
	}
	s.done = newDoneRing(cfg.doneWindow, s.registry)
	s.registry.NewInfo("netupdate_scheduler_info", "The engine's scheduling policy.",
		map[string]string{"scheduler": s.scheduler})
	if s.shardID > 0 {
		s.registry.NewInfo("netupdate_shard_info", "This engine's slot in a sharded deployment.",
			map[string]string{"shard": strconv.Itoa(s.shardID), "shards": strconv.Itoa(int(s.idStride))})
	}
	s.ingest = obs.NewIngestMetrics(s.registry)
	s.ingest.Watermark.Set(int64(s.watermark))
	s.wire = &WireServer{
		Handle:      s.dispatchAt,
		Stream:      s.serveRepl,
		StreamMagic: replStreamMagic,
		FramesV2:    s.ingest.FramesV2,
		CodecConns:  s.ingest.CodecV2Conns,
	}
	s.closing = s.wire.Closing()
	// Attach the tracer before the state loop starts so the engine never
	// sees a concurrent SetTracer.
	s.engine.SetTracer(obs.NewTracer(s.ring, obs.NewSimMetrics(s.registry)))
	s.lat = obs.NewLatencyMetrics(s.registry)
	var spanOut obs.Sink
	if s.spanSink != nil {
		s.spanAsync = obs.NewAsyncSink(s.spanSink, spanSinkDepth, s.lat.SpansDropped)
		spanOut = s.spanAsync
	}
	s.spans = obs.NewSpanRecorder(spanOut, s.lat)
	return s
}

// start launches the state loop. Call exactly once, after any recovery.
// The span recorder is attached here — after WAL replay — so replayed
// history re-executes without emitting span records or latency samples.
func (s *Server) start() {
	s.engine.SetSpans(s.spans)
	s.loop.Add(1)
	go s.stateLoop()
}

// Registry exposes the server's metric registry, e.g. for mounting
// obs.Handler on an HTTP listener. All registered values are atomics, so
// scraping is safe while the server runs; pass RefreshGauges as the
// handler's refresh so a scrape sees the instantaneous gauges current.
func (s *Server) Registry() *obs.Registry { return s.registry }

// RefreshGauges recomputes the instantaneous gauges on the state loop,
// after the round in progress, like any other read. A closed server
// keeps the values its last read left.
func (s *Server) RefreshGauges() {
	_ = s.onLoop(func() error {
		s.refreshGauges()
		return nil
	})
}

// Serve accepts connections on l until Close. It returns ErrServerClosed
// after a clean shutdown.
func (s *Server) Serve(l net.Listener) error {
	return s.wire.Serve(l)
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	return s.wire.ListenAndServe(addr)
}

// Close stops accepting, closes open connections, and waits for the state
// loop and all handlers to exit. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	// Handlers may still have commands buffered in s.cmds; the state loop
	// keeps answering them (with ErrServerClosed) until every handler has
	// exited — wire.Close waits for that. Only then is it safe to let the
	// loop return: afterwards nobody is left to send.
	firstErr := s.wire.Close()
	// Replication goroutines (the follower stream, the heartbeater) also
	// send commands, so they too must be gone before the loop may stop.
	s.journal.stop()
	close(s.loopStop)
	s.loop.Wait()
	if err := s.journal.close(); err != nil && firstErr == nil {
		firstErr = err
	}
	// Drain and release the span channel: nothing emits anymore, so Close
	// delivers every buffered stage record and flushes the inner sink.
	if s.spanAsync != nil {
		if err := s.spanAsync.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// dispatch routes a request to the state loop and waits for the answer.
func (s *Server) dispatch(req Request) Response {
	return s.dispatchAt(req, time.Now().UnixNano())
}

// dispatchAt is dispatch with an explicit ingest wall stamp (the
// WireServer stamps requests as they come off the wire).
func (s *Server) dispatchAt(req Request, ingestWall int64) Response {
	return s.send(command{req: req, ingestWall: ingestWall})
}

// onLoop runs fn on the state loop, alone at a flushed sequence point —
// every record appended so far committed and published, nothing staged —
// and returns once the loop has also committed whatever fn appended. The
// error is fn's, or says that fn did not run (the server is closing) or
// that the commit behind it failed.
func (s *Server) onLoop(fn func() error) error {
	if resp := s.send(command{fn: fn}); !resp.OK {
		return errors.New(resp.Error)
	}
	return nil
}

// send hands one command to the state loop and waits for its reply.
func (s *Server) send(cmd command) Response {
	// Fast-fail once shutdown has begun, so new requests don't land in
	// the command buffer just to be refused by the shutdown drain.
	select {
	case <-s.closing:
		return Response{OK: false, Error: ErrServerClosed.Error()}
	default:
	}
	cmd.reply = make(chan Response, 1)
	select {
	case s.cmds <- cmd:
		// A send that races shutdown is still answered: the state loop
		// drains s.cmds until all handlers (including this one) exit.
		return <-cmd.reply
	case <-s.closing:
		return Response{OK: false, Error: ErrServerClosed.Error()}
	}
}

// stateLoop owns the engine, queue and event table. It interleaves command
// processing with scheduling rounds: whenever the queue is non-empty it
// keeps running rounds, checking for new commands between rounds. Each
// wakeup drains the whole command backlog so a burst of submissions is
// admitted into the scheduler queue in bulk rather than one per wakeup.
func (s *Server) stateLoop() {
	defer s.loop.Done()
	var batch []command

	for {
		batch = batch[:0]
		// Block for work when idle; poll between rounds otherwise. A
		// following replica's work is its fold, not its queue: its engine
		// may only advance toward the next replicated record's round
		// stamp, and free-running rounds would push the clock past it and
		// diverge the fold. So it polls only while records wait to be
		// folded, and advances one fold round at a time between commands.
		following := s.journal.folding()
		busy := s.engine.QueueLen() > 0
		if following {
			busy = s.journal.foldPending()
		}
		if !busy {
			select {
			case cmd := <-s.cmds:
				batch = append(batch, cmd)
			case <-s.closing:
				s.drainOnClose()
				return
			}
		} else {
			select {
			case cmd := <-s.cmds:
				batch = append(batch, cmd)
			case <-s.closing:
				s.drainOnClose()
				return
			default:
				if following {
					// A failed fold is sticky in the journal, which ends
					// following; the server keeps serving reads.
					_ = s.foldNext()
					continue
				}
				if _, err := s.step(); err != nil {
					// An executing event hit a hard error (invalid spec got
					// through validation, ledger bug): surface it loudly
					// rather than dying silently.
					s.failStop(fmt.Errorf("ctl: scheduling round: %w", err))
				}
				continue
			}
		}
		// Drain whatever else is already queued. No closing case here:
		// every drained command has a handler blocked on its reply, so we
		// must answer them all before the loop can exit.
		for draining := true; draining; {
			select {
			case cmd := <-s.cmds:
				batch = append(batch, cmd)
			default:
				draining = false
			}
		}
		s.handleBatch(batch)
		if s.journal.checkpointDue() {
			if err := s.checkpoint(); err != nil {
				s.failStop(err)
			}
		}
	}
}

// drainOnClose answers every command still buffered — or sent while the
// shutdown races dispatch — with ErrServerClosed, returning only once
// Close has confirmed (via loopStop) that all connection handlers have
// exited. Returning any earlier would strand a buffered command with no
// receiver: its handler would block forever on the reply and Close would
// hang on conns.Wait.
func (s *Server) drainOnClose() {
	for {
		select {
		case cmd := <-s.cmds:
			cmd.reply <- Response{OK: false, Error: ErrServerClosed.Error()}
		case <-s.loopStop:
			return
		}
	}
}

// handleBatch processes one drained command batch (state loop only).
// Consecutive submissions are staged — IDs assigned, overload policy
// applied, replies computed — and admitted into the engine through one
// EnqueueBatch before any other command observes the queue, and again at
// batch end. Every other command runs alone between two flushes.
//
// Every reply leaves through flush, after the journal committed what the
// commands behind it appended: a client that got an OK can immediately
// query the event's status, and what it was told survives a crash here
// and on every synced follower. If the commit fails nothing is
// acknowledged — that is the fail-stop.
func (s *Server) handleBatch(batch []command) {
	var staged []*core.Event
	var pending []command
	var replies []Response
	flush := func() {
		if len(pending) == 0 {
			return
		}
		s.engine.EnqueueBatch(staged)
		if len(staged) > 0 {
			// One wall stamp per flush: the whole staged batch entered the
			// queue in one EnqueueBatch, so its events share an admit time.
			wall := time.Now().UnixNano()
			for _, ev := range staged {
				s.spans.Admitted(int64(ev.ID), wall, int64(ev.Arrival))
			}
		}
		if err := s.journal.commit(); err != nil {
			s.failStop(err)
			for i := range replies {
				replies[i] = Response{OK: false, Error: err.Error()}
			}
		} else if s.journal != nil && len(staged) > 0 {
			wall := time.Now().UnixNano()
			for _, ev := range staged {
				s.spans.WALCommitted(int64(ev.ID), wall, int64(ev.Arrival))
			}
		}
		staged = staged[:0]
		for i, cmd := range pending {
			cmd.reply <- replies[i]
		}
		pending, replies = pending[:0], replies[:0]
	}
	for _, cmd := range batch {
		if op := cmd.req.Op; cmd.fn == nil && (op == OpSubmit || op == OpSubmitBatch) {
			pending = append(pending, cmd)
			replies = append(replies, s.stageSubmit(cmd.req, cmd.ingestWall, &staged))
			continue
		}
		flush()
		var resp Response
		if cmd.fn == nil {
			resp = s.handleRequest(cmd.req)
		} else if err := cmd.fn(); err != nil {
			resp.Error = err.Error()
		} else {
			resp.OK = true
		}
		pending, replies = append(pending, cmd), append(replies, resp)
		flush()
	}
	flush()
}

// stageSubmit validates and stages the events of one submit or
// submit-batch request, applying the watermark policy against the
// effective depth (queued plus already staged). It decides first — one
// log record per accepted event — then logs each record and applies it
// through admit, the fold recovery and followers take. It returns the
// response to send once the staged events have been enqueued.
// ingestWall is the wall clock stamped when the request came off the
// wire; it opens each accepted event's latency span.
func (s *Server) stageSubmit(req Request, ingestWall int64, staged *[]*core.Event) Response {
	if resp, ok := s.journal.writable(); !ok {
		return resp
	}
	specs := req.Events
	if req.Op == OpSubmit {
		specs = []EventSpec{*req.Event}
	}
	var sc obs.SpanContext
	if req.Span != nil {
		sc = *req.Span
	}
	verdicts := make([]SubmitVerdict, len(specs))
	var overload *OverloadInfo
	recs := make([]wal.Record, 0, len(specs))
	for i := range specs {
		if err := specs[i].Validate(s.numNodes); err != nil {
			verdicts[i] = SubmitVerdict{Error: err.Error()}
			continue
		}
		if depth := s.engine.QueueLen() + len(*staged) + len(recs); depth >= s.watermark {
			if overload == nil {
				overload = s.overloadInfo(depth)
			}
			verdicts[i] = SubmitVerdict{Error: ErrOverloaded.Error(), Overloaded: true}
			s.ingest.Rejected.Inc()
			continue
		}
		e := &wal.EventRecord{
			EventID:      s.nextID + int64(len(recs))*s.idStride,
			Kind:         specs[i].Kind,
			Retry:        req.Retry,
			Flows:        make([]wal.FlowSpec, len(specs[i].Flows)),
			Origin:       sc.Origin,
			SubmitWallNs: sc.SubmitWallNs,
		}
		if e.Kind == "" {
			e.Kind = "submitted"
		}
		for j, f := range specs[i].Flows {
			e.Flows[j] = wal.FlowSpec{
				Src: f.Src, Dst: f.Dst,
				DemandBps: f.DemandBps, SizeBytes: f.SizeBytes,
			}
		}
		recs = append(recs, wal.Record{
			Type:   wal.TypeEvent,
			ID:     wal.ID{VT: int64(s.engine.Clock())},
			Rounds: s.engine.Rounds(),
			Event:  e,
		})
		verdicts[i] = SubmitVerdict{OK: true, EventID: e.EventID, Shard: s.shardID}
	}
	if len(recs) > 0 {
		// One request, one batch stamp: the first record carries how many
		// events the request admitted, which is what admit counts batches
		// by. Sequence numbers are assigned at append time — the state
		// loop is the only appender, so the records land contiguous.
		recs[0].Event.BatchSize = len(recs)
	}
	for i := range recs {
		s.journal.append(&recs[i])
		ev := s.admit(recs[i].Event)
		*staged = append(*staged, ev)
		s.spans.Opened(int64(ev.ID), sc, ingestWall, int64(ev.Arrival))
	}
	if req.Op == OpSubmit {
		v := verdicts[0]
		if !v.OK {
			return Response{OK: false, Error: v.Error, Overload: overload}
		}
		return Response{OK: true, EventID: v.EventID}
	}
	// Batch responses are request-level OK even when individual events
	// were rejected; per-event outcomes live in the verdicts.
	return Response{OK: true, Verdicts: verdicts, Overload: overload}
}

// admit folds one admitted-event record into state: the event joins the
// event table at the current virtual time, the ID lattice advances and
// the ingest counters move. It is the only way an event is admitted —
// live submissions (stageSubmit), crash replay and the follower fold
// (replayRecord) all come through here, so live and recovered state
// cannot drift. The caller enqueues the returned event.
func (s *Server) admit(e *wal.EventRecord) *core.Event {
	specs := make([]flow.Spec, len(e.Flows))
	for i, f := range e.Flows {
		specs[i] = flow.Spec{
			Src:    topology.NodeID(f.Src),
			Dst:    topology.NodeID(f.Dst),
			Demand: topology.Bandwidth(f.DemandBps),
			Size:   f.SizeBytes,
		}
	}
	ev := core.NewEvent(flow.EventID(e.EventID), e.Kind, s.engine.Clock(), specs)
	s.events[e.EventID] = ev
	s.nextID += s.idStride
	s.ingest.Accepted.Inc()
	if e.Retry {
		s.ingest.Retried.Inc()
	}
	if e.BatchSize > 0 {
		s.ingest.Batches.Inc()
		s.ingest.BatchSize.Observe(int64(e.BatchSize))
	}
	return ev
}

// inject folds one fault record into state — the injection itself plus
// tabling the repair event it may mint, so status/results report the
// recovery like any submitted event. Shared by OpFault and replayRecord.
// It returns the outcome and the minted repair event's ID (0 when none),
// which is the caller's to record in f.RepairEventID (live) or compare
// with it (replay).
func (s *Server) inject(f *wal.FaultRecord) (out *sim.FaultOutcome, repairID int64, err error) {
	out, err = s.engine.InjectFault(fault.Injection{
		At:     s.engine.Clock(),
		Action: fault.Action(f.Action),
		Link:   f.Link,
		Node:   f.Node,
		Event:  f.Event,
		Times:  f.Times,
	})
	if err != nil {
		return nil, 0, err
	}
	if ev := out.RepairEvent; ev != nil {
		repairID = int64(ev.ID)
		s.events[repairID] = ev
	}
	return out, repairID, nil
}

// overloadInfo builds the rejection payload for a submission refused at
// the given queue depth. The retry-after hint is deterministic in the
// depth — one millisecond per queued event, clamped to [5ms, 2s] — so a
// deeper queue pushes clients further out.
func (s *Server) overloadInfo(depth int) *OverloadInfo {
	hint := time.Duration(depth) * time.Millisecond
	if hint < 5*time.Millisecond {
		hint = 5 * time.Millisecond
	}
	if hint > 2*time.Second {
		hint = 2 * time.Second
	}
	return &OverloadInfo{
		QueueDepth:   depth,
		Watermark:    s.watermark,
		RetryAfterMs: hint.Milliseconds(),
	}
}

// sample refreshes the instantaneous gauges from live state and reads
// the registry (state loop only): what OpStats decodes and OpMetrics
// ships.
func (s *Server) sample() obs.Sample {
	s.refreshGauges()
	return s.registry.Sample()
}

// handleRequest executes one request against the state (state loop only).
func (s *Server) handleRequest(req Request) Response {
	switch req.Op {
	case OpPing:
		// Feature negotiation: clients probe here before enabling binary
		// extensions a pre-feature server would reject.
		return Response{OK: true, Features: []string{FeatureSpanContext, FeatureShardVerdicts}}

	case OpStatus:
		// Queued events are in the table, the last doneWindow completions
		// in the ring; anything else — never admitted, or completed longer
		// ago than the window reaches — is unknown.
		st := EventStatus{EventID: req.EventID, State: StateUnknown}
		if ev, ok := s.events[req.EventID]; ok {
			st = EventStatus{EventID: req.EventID, State: StateQueued, Kind: ev.Kind, Flows: ev.NumFlows()}
		} else if r, ok := s.done.get(req.EventID); ok {
			st = doneStatus(r)
		}
		return Response{OK: true, Status: &st}

	case OpResults:
		var results []EventStatus
		for _, r := range s.done.ordered() {
			results = append(results, doneStatus(r))
		}
		return Response{OK: true, Results: results}

	case OpSnapshot:
		return Response{OK: true, Snapshot: snapshot.Capture(s.planner.Network())}

	case OpStats:
		return Response{OK: true, Stats: StatsOf(s.sample())}

	case OpMetrics:
		return Response{OK: true, Metrics: s.sample()}

	case OpTrace:
		return Response{OK: true, Trace: s.ring.Last(req.N)}

	case OpFault:
		if resp, ok := s.journal.writable(); !ok {
			return resp
		}
		rec := wal.Record{
			Type:   wal.TypeFault,
			ID:     wal.ID{VT: int64(s.engine.Clock())},
			Rounds: s.engine.Rounds(),
			Fault: &wal.FaultRecord{
				Action: req.Fault.Action,
				Link:   req.Fault.Link,
				Node:   req.Fault.Node,
				Event:  req.Fault.Event,
				Times:  req.Fault.Times,
			},
		}
		out, repairID, err := s.inject(rec.Fault)
		if err != nil {
			return Response{OK: false, Error: fmt.Sprintf("%v: %v", ErrBadRequest, err)}
		}
		res := &FaultResult{
			Action:        string(out.Action),
			LinksChanged:  out.LinksChanged,
			FlowsAffected: out.FlowsAffected,
			LinksDown:     out.LinksDown,
			RepairEventID: repairID,
		}
		// The minted repair ID is an outcome, so the record is only
		// complete — and only logged — once the injection succeeded. The
		// injection already mutated live state; the flush behind this
		// reply commits it before the ack leaves.
		rec.Fault.RepairEventID = repairID
		s.journal.append(&rec)
		return Response{OK: true, Fault: res}

	case OpReplStatus:
		if info := s.journal.info(); info != nil {
			return Response{OK: true, Repl: info}
		}
		return Response{OK: false, Error: noWALError}

	case OpReplPromote:
		return s.journal.promote(s.foldAll, s.drain)

	default:
		return Response{OK: false, Error: fmt.Sprintf("%v: unknown op %q", ErrBadRequest, req.Op)}
	}
}
