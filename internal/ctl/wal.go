package ctl

// Durable write-ahead logging and crash recovery for the controller.
//
// The recovery model is a fold: the engine's externally-visible state is
// a pure function of the ordered admitted-input history (submitted
// events, fault injections) because the virtual clock only advances
// inside scheduling rounds and every random draw comes from a counted,
// seeded source. The WAL records that history — each record stamped
// with the logical clock (virtual time, sequence) and the round count
// at admission — and a checkpoint freezes the folded state so the log
// can be truncated. Recovery is: thaw the checkpoint, then re-admit the
// log suffix, stepping the engine to each record's round stamp and
// asserting the virtual clock matches the stamp. Any mismatch is a
// divergence (ErrReplayDiverged): the binary, seed or world differs
// from the one that wrote the log, and continuing would fabricate
// history.
//
// Determinism makes re-planning give the right answer; it does not make
// it cheap, and planning is most of what a round costs. So a leader also
// logs the outcome of every round whose decision carried a plan (lmtf,
// p-lmtf, reorder) and was costly to make (sim.logEvalsPerFlow): a round
// record holding the decision's trace fields, each lane's applied plan
// and the RNG positions after the round. Recovery and the follower fold apply such a record through the
// engine's own round body (sim.Engine.ApplyRound) instead of deciding
// the round again; every victim is resolved by ID, so a plan that no
// longer fits is a divergence too. A round record is a memo, not an
// input: a round the log has no record of (a crash tail, a FIFO run, a
// log an older build wrote) is planned again as before. Nothing waits on
// one — it is held until the next input record is appended and made
// durable by that record's commit (or at Close), and the checkpoint
// cadence counts input records only.

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"strings"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/flow"
	"netupdate/internal/metrics"
	"netupdate/internal/obs"
	"netupdate/internal/sim"
	"netupdate/internal/snapshot"
	"netupdate/internal/topology"
	"netupdate/internal/wal"
)

// DefaultCheckpointEvery is the automatic checkpoint cadence: a
// checkpoint is taken after this many input records (events and faults)
// have been appended since the last one.
const DefaultCheckpointEvery = 4096

// ErrReplayDiverged reports that replaying the WAL reproduced different
// state than the log records — the binary, seed, topology or scheduler
// differs from the run that wrote the log. Match with errors.Is.
var ErrReplayDiverged = errors.New("ctl: wal replay diverged")

// WALConfig wires a server to an opened write-ahead log.
type WALConfig struct {
	// Log is the opened log directory (wal.Open). Callers open it
	// themselves so they can inspect Checkpoint() before deciding how to
	// build the world: a log with a checkpoint restores its own flows,
	// so background pre-fill must be skipped; a checkpoint-free log
	// replays against the freshly built (filled) genesis network.
	Log *wal.Log
	// Meta describes the world the log belongs to; it is verified
	// against the log's recorded meta so a log is never replayed into a
	// different world. Nil derives a minimal meta from the server.
	Meta *wal.Meta
	// CheckpointEvery is the automatic checkpoint cadence in appended
	// input records; 0 means DefaultCheckpointEvery, negative disables
	// automatic checkpoints (ForceCheckpoint still works).
	CheckpointEvery int

	// followerBoot marks a NewFollower recovery: the boot state must be
	// the exact fold at the last applied record, not the quiesced
	// drain, because the leader's subsequent record stamps continue
	// from that fold.
	followerBoot bool
}

// RecoveryInfo reports what WAL recovery rebuilt.
type RecoveryInfo struct {
	// Recovered is true when any state was restored (checkpoint or
	// replayed records).
	Recovered bool
	// CheckpointSeq is the sequence covered by the restored checkpoint
	// (0 when none existed).
	CheckpointSeq int64
	// ReplayedRecords is the number of input records (events and
	// faults) re-admitted.
	ReplayedRecords int
	// ReplayedRounds is the number of logged rounds applied instead of
	// re-planned.
	ReplayedRounds int
	// LastSeq is the log's last sequence after recovery.
	LastSeq int64
	// Elapsed is the wall-clock time recovery took.
	Elapsed time.Duration
}

// rngCarrier is implemented by schedulers and route selectors whose
// randomness comes from a counted deterministic source.
type rngCarrier interface {
	RNGDraws() int64
	RestoreRNG(int64)
}

// queuedEvent is one not-yet-executed event in the checkpoint, carrying
// the full specs it still needs to execute with.
type queuedEvent struct {
	ID        int64          `json:"id"`
	Kind      string         `json:"kind"`
	ArrivalNs int64          `json:"arrival_ns"`
	Flows     []wal.FlowSpec `json:"flows"`
}

// rngState carries the counted-draw positions of the deterministic
// random sources, so a restored run continues the same stream.
type rngState struct {
	Scheduler int64 `json:"scheduler,omitempty"`
	Selector  int64 `json:"selector,omitempty"`
}

// checkpointDoc is the state document a checkpoint freezes: everything
// needed to rebuild a server whose externally-visible behavior is
// indistinguishable from one that never restarted. Its size follows the
// live work — queue, placed flows, scheduled releases — plus at most
// doneWindow records, not the number of events ever completed. It is
// written with encoding/gob (wal.CheckpointFormat); the JSON tags read
// the documents written before that (wal.FormatVersion).
type checkpointDoc struct {
	NextID int64 `json:"next_id"`

	Queue []queuedEvent `json:"queue,omitempty"`
	// Done lists the done window, the last completions in completion
	// order.
	Done []metrics.EventRecord `json:"done,omitempty"`

	Engine  sim.EngineState    `json:"engine"`
	Network *snapshot.Snapshot `json:"network"`
	// Metrics is the registry's restorable reading (Registry.Restorable):
	// every completed event, fault and submission folded into counters
	// and histograms. A JSON document keeps it under "sim", where older
	// ones kept an object of hand-copied counters that legacySample reads.
	Metrics obs.Sample `json:"sim"`
	RNG     rngState   `json:"rng"`
}

// initWAL attaches an opened log to a not-yet-started server and
// recovers its history (build, for New and NewFollower alike). On
// success the server carries a journal (leader role by default;
// NewFollower flips it before start).
func (s *Server) initWAL(cfg WALConfig, rc ReplicationConfig) (*RecoveryInfo, error) {
	m := wal.Meta{Format: wal.FormatVersion, Scheduler: s.scheduler, Watermark: s.watermark}
	if cfg.Meta != nil {
		m = *cfg.Meta
	}
	if s.shardID > 0 && m.Shard == 0 {
		// A sharded engine stamps its placement into the log so recovery
		// onto the wrong shard slot (different ID lattice) is refused by
		// the meta check instead of diverging on replay.
		m.Shard = s.shardID
		m.Shards = int(s.idStride)
	}
	j, err := newJournal(cfg, m, rc, s.registry, s.lat.WALFsync, s.closing)
	if err != nil {
		return nil, err
	}
	started := time.Now()
	info, err := j.replay(s.restoreCheckpoint, s.replayRecord)
	if err != nil {
		return nil, err
	}

	// Drain the replayed backlog before serving. Replay only steps the
	// engine to the last record's round stamp, which can leave admitted
	// but unexecuted work behind — a repair event minted by a replayed
	// fault, or a checkpointed queue. Running the cascade dry here makes
	// the boot state a pure function of the committed history; otherwise
	// the leftover rounds race against the first post-recovery request
	// and the admission interleaving (hence the round structure) becomes
	// nondeterministic.
	//
	// A follower boot must NOT drain: the leader stamps later records
	// against its own mid-cascade rounds, so the fold has to resume from
	// exactly the replayed state. The drain happens at promotion instead.
	// Either way the instantaneous gauges are refreshed: a scrape between
	// recovery and the first round must already see the continuous
	// world, not zeros.
	//
	// The drain's rounds are the ones the crashed leader ran past the end
	// of its log, so they are logged as its were: held for the next input
	// record. Rounds re-planned inside the replay lie between records and
	// stay unlogged.
	s.journal = j
	s.engine.SetRoundLog(s.logRound)
	if cfg.followerBoot {
		s.refreshGauges()
	} else if err := s.drain(); err != nil {
		return nil, fmt.Errorf("ctl: draining replayed backlog: %w", err)
	}

	if err := j.open(int64(s.engine.Clock()), s.engine.Rounds()); err != nil {
		return nil, err
	}
	info.Elapsed = time.Since(started)
	j.met.RecoveryMs.Set(info.Elapsed.Milliseconds())

	j.wg.Add(1)
	go j.heartbeats()
	return info, nil
}

// ForceCheckpoint takes a checkpoint now (blocking until the state loop
// has taken it) and truncates the log behind it.
func (s *Server) ForceCheckpoint() error { return s.onLoop(s.checkpoint) }

// checkpoint freezes the folded state into the journal (state loop
// only, at a flushed sequence point).
func (s *Server) checkpoint() error {
	if s.journal == nil {
		return errors.New("ctl: WAL disabled")
	}
	// The checkpoint freezes the fold at the journal's sequence, so a
	// follower folds its backlog first.
	if err := s.foldAll(); err != nil {
		return err
	}
	state, err := s.encodeCheckpoint()
	if err != nil {
		return err
	}
	return s.journal.checkpoint(state, int64(s.engine.Clock()), s.engine.Rounds())
}

// encodeCheckpoint gob-encodes the full controller state (state loop
// only): the state of every checkpoint this build writes.
func (s *Server) encodeCheckpoint() ([]byte, error) {
	var state bytes.Buffer
	if err := gob.NewEncoder(&state).Encode(s.buildCheckpoint()); err != nil {
		return nil, fmt.Errorf("ctl: checkpoint: %w", err)
	}
	return state.Bytes(), nil
}

// buildCheckpoint captures the full controller state (state loop only).
func (s *Server) buildCheckpoint() *checkpointDoc {
	net := s.planner.Network()
	doc := &checkpointDoc{
		NextID:  s.nextID,
		Done:    s.done.ordered(),
		Engine:  s.engine.ExportState(),
		Network: snapshot.CaptureIDs(net),
		Metrics: s.registry.Restorable(),
	}
	for _, ev := range s.engine.QueueEvents() {
		qe := queuedEvent{
			ID:        int64(ev.ID),
			Kind:      ev.Kind,
			ArrivalNs: int64(ev.Arrival),
			Flows:     make([]wal.FlowSpec, len(ev.Specs)),
		}
		for i, sp := range ev.Specs {
			qe.Flows[i] = wal.FlowSpec{
				Src: int(sp.Src), Dst: int(sp.Dst),
				DemandBps: int64(sp.Demand), SizeBytes: sp.Size,
			}
		}
		doc.Queue = append(doc.Queue, qe)
	}
	doc.RNG.Scheduler, doc.RNG.Selector = s.rngDraws()
	return doc
}

// restoreCheckpoint thaws a checkpoint into the freshly built server:
// network flows, engine run state, event table, queue, done window,
// metrics and RNG positions. Runs before the state loop starts.
func (s *Server) restoreCheckpoint(ckpt *wal.Checkpoint) error {
	var doc checkpointDoc
	var err error
	switch ckpt.Format {
	case wal.CheckpointFormat:
		err = gob.NewDecoder(bytes.NewReader(ckpt.State)).Decode(&doc)
	case wal.FormatVersion:
		// A JSON document, written before the binary container.
		var old *json.UnmarshalTypeError
		err = json.Unmarshal(ckpt.State, &doc)
		if errors.As(err, &old) && old.Field == "sim" {
			// A document from before the checkpoint carried the registry
			// holds an object there, and decoding skipped just that key.
			doc.Metrics, err = legacySample(ckpt.State, doc.Done, s.registry.Restorable())
		}
	default:
		err = fmt.Errorf("format %d", ckpt.Format)
	}
	if err != nil {
		return fmt.Errorf("ctl: decoding checkpoint: %w", err)
	}
	if doc.Engine.ClockNs != ckpt.ID.VT || doc.Engine.Rounds != ckpt.Rounds {
		return fmt.Errorf("%w: checkpoint stamped (vt=%d, rounds=%d) but carries (vt=%d, rounds=%d)",
			ErrReplayDiverged, ckpt.ID.VT, ckpt.Rounds, doc.Engine.ClockNs, doc.Engine.Rounds)
	}
	net := s.planner.Network()
	flows, err := snapshot.Populate(net, doc.Network)
	if err != nil {
		return fmt.Errorf("ctl: restoring network: %w", err)
	}
	if err := s.engine.RestoreState(doc.Engine, flows); err != nil {
		return err
	}

	// Event table: queued events are rebuilt whole (they still need to
	// execute).
	s.nextID = doc.NextID
	queueEvs := make([]*core.Event, len(doc.Queue))
	for i, qe := range doc.Queue {
		specs := make([]flow.Spec, len(qe.Flows))
		for j, f := range qe.Flows {
			specs[j] = flow.Spec{
				Src:    topology.NodeID(f.Src),
				Dst:    topology.NodeID(f.Dst),
				Demand: topology.Bandwidth(f.DemandBps),
				Size:   f.SizeBytes,
			}
		}
		ev := core.NewEvent(flow.EventID(qe.ID), qe.Kind, time.Duration(qe.ArrivalNs), specs)
		queueEvs[i] = ev
		s.events[qe.ID] = ev
	}
	s.engine.RestoreQueue(queueEvs)

	// The window refills with the done records; what every completion
	// folded into, the registry restores.
	s.done.refill(doc.Done)
	if err := s.registry.Restore(doc.Metrics); err != nil {
		return fmt.Errorf("ctl: restoring metrics: %w", err)
	}

	s.restoreRNG(doc.RNG.Scheduler, doc.RNG.Selector)
	return nil
}

// legacySample reads the telemetry of a document from before the
// checkpoint carried the registry into the reading Registry.Restore
// takes. Such a document kept counters and histogram bucket counts under
// "sim" and "ingest" and plan time at the top, each under its metric's
// name less the netupdate_ and ingest_ prefixes and the _total (for a
// histogram, _ns) suffix. Cost was the collector's, in the running totals
// under "order" — or, before the done window, an ID list there and every
// completed event under done, whose fold is the totals. fresh is the
// restoring registry's own reading, for its names and bucket bounds.
func legacySample(state []byte, done []metrics.EventRecord, fresh obs.Sample) (obs.Sample, error) {
	var doc struct {
		Order      json.RawMessage            `json:"order"`
		PlanTimeNs json.RawMessage            `json:"plan_time_ns"`
		Sim        map[string]json.RawMessage `json:"sim"`
		Ingest     map[string]json.RawMessage `json:"ingest"`
	}
	if err := json.Unmarshal(state, &doc); err != nil {
		return nil, err
	}
	var totals metrics.Totals
	if len(doc.Order) > 0 && doc.Order[0] == '{' {
		if err := json.Unmarshal(doc.Order, &totals); err != nil {
			return nil, err
		}
	} else {
		for _, r := range done {
			totals.Cost += r.Cost
			totals.MaxECT = max(totals.MaxECT, r.ECT())
			totals.MaxDelay = max(totals.MaxDelay, r.QueuingDelay())
		}
	}
	// A document from before histograms kept their maximum carries none;
	// the totals have it.
	maxes := map[string]time.Duration{"netupdate_ect_ns": totals.MaxECT, "netupdate_queuing_delay_ns": totals.MaxDelay}
	raw := map[string]json.RawMessage{"plan_time_ns": doc.PlanTimeNs}
	maps.Copy(raw, doc.Sim)
	maps.Copy(raw, doc.Ingest)
	for i := range fresh {
		m := &fresh[i]
		key := strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(m.Name, "netupdate_"), "ingest_"), "_total")
		if m.Type == obs.TypeHistogram {
			key = strings.TrimSuffix(key, "_ns")
		}
		data := raw[key]
		var err error
		switch {
		case m.Name == "netupdate_cost_bps_total":
			m.Int = int64(totals.Cost)
		case data == nil:
		case m.Type == obs.TypeCounter:
			err = json.Unmarshal(data, &m.Int)
		case m.Type == obs.TypeHistogram:
			var h struct {
				Counts          []int64
				Sum, Count, Max int64
			}
			err = json.Unmarshal(data, &h)
			v := &obs.HistogramValue{Bounds: m.Hist.Bounds, Sum: h.Sum, Count: h.Count,
				Max: max(h.Max, int64(maxes[m.Name]))}
			for j, c := range h.Counts {
				if c != 0 {
					v.Buckets = append(v.Buckets, obs.Bucket{Index: j, Count: c})
				}
			}
			m.Hist = v
		}
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", m.Name, err)
		}
	}
	return fresh, nil
}

// refreshGauges recomputes the instantaneous gauges from current state
// (state loop only). It is their one writer: no round sets them, so a
// round costs only what it executes, and every read — sample, the
// recovery boot, the promotion drain, an HTTP scrape — refreshes first.
// The link-utilization distribution takes one pass over the links.
func (s *Server) refreshGauges() {
	met := s.engine.Tracer().Metrics()
	net := s.planner.Network()
	g := net.Graph()
	s.utilScratch = s.utilScratch[:0]
	for i := 0; i < g.NumLinks(); i++ {
		s.utilScratch = append(s.utilScratch, g.Link(topology.LinkID(i)).Utilization())
	}
	met.QueueDepth.Set(int64(s.engine.QueueLen()))
	met.VirtualClock.Set(int64(s.engine.Clock()))
	met.Utilization.Set(net.Utilization())
	met.FlowsPlaced.Set(int64(net.Registry().NumPlaced()))
	met.LinkUtil.Update(s.utilScratch)
	met.LinksDown.Set(int64(s.engine.LinksDown()))
	s.journal.refreshLag()
}

// replayRecord folds one log record during crash recovery or on a
// follower: step the engine to the record's round stamp, re-planning any
// round the log holds no record of, check the logical clock, and apply
// the record — an input through admit / inject, the same functions a
// live request goes through, a logged round through the engine's own
// round body — so the fold that defines what the state must be exists
// once.
func (s *Server) replayRecord(rec *wal.Record) error {
	if err := s.stepUntil(rec.Rounds); err != nil {
		return fmt.Errorf("ctl: replay round: %w", err)
	}
	// A stall short of the stamp means the replayed world has less work
	// than the recorded one did; a round past it, a logged round applied
	// twice or out of order.
	if got := s.engine.Rounds(); got != rec.Rounds {
		return fmt.Errorf("%w: record seq %d stamped round %d, engine at round %d",
			ErrReplayDiverged, rec.ID.Seq, rec.Rounds, got)
	}
	if vt := int64(s.engine.Clock()); vt != rec.ID.VT {
		return fmt.Errorf("%w: record seq %d stamped vt=%d, engine at vt=%d",
			ErrReplayDiverged, rec.ID.Seq, rec.ID.VT, vt)
	}
	switch rec.Type {
	case wal.TypeEvent:
		if rec.Event.EventID != s.nextID {
			return fmt.Errorf("%w: record seq %d admits event %d, expected %d",
				ErrReplayDiverged, rec.ID.Seq, rec.Event.EventID, s.nextID)
		}
		s.engine.Enqueue(s.admit(rec.Event))
		return nil

	case wal.TypeFault:
		_, repairID, err := s.inject(rec.Fault)
		if err != nil {
			return fmt.Errorf("%w: record seq %d fault %q failed: %v",
				ErrReplayDiverged, rec.ID.Seq, rec.Fault.Action, err)
		}
		if repairID != rec.Fault.RepairEventID {
			return fmt.Errorf("%w: record seq %d fault minted repair event %d, log recorded %d",
				ErrReplayDiverged, rec.ID.Seq, repairID, rec.Fault.RepairEventID)
		}
		return nil

	case wal.TypeRound:
		return s.applyRound(rec)

	default:
		return fmt.Errorf("%w: record seq %d has unexpected type %d",
			ErrReplayDiverged, rec.ID.Seq, rec.Type)
	}
}

// foldNext advances a follower's fold by one round: a round toward the
// oldest unfolded record's stamp or, at the stamp, the record itself
// (state loop, polled between commands as the leader's loop runs its
// rounds). A failure is sticky: the fold stops and following ends.
func (s *Server) foldNext() error {
	rec, err := s.journal.nextUnfolded()
	if err != nil {
		return err
	}
	if s.engine.Rounds() < rec.Rounds {
		worked, err := s.step()
		if err != nil {
			return s.journal.failFold(fmt.Errorf("ctl: replay round: %w", err))
		}
		if worked {
			return nil
		}
		// No work short of the stamp: replayRecord names the stall.
	}
	if err := s.replayRecord(rec); err != nil {
		return s.journal.failFold(err)
	}
	s.journal.folded()
	return nil
}

// foldAll folds the whole backlog, held or not: what a checkpoint and a
// promotion need before they read the state.
func (s *Server) foldAll() error {
	for s.journal.unfolded() > 0 {
		if err := s.foldNext(); err != nil {
			return err
		}
	}
	return nil
}

// quiescence as a stepUntil target runs the queue dry.
const quiescence = math.MaxInt64

// drain folds any backlog and runs the queue dry — what recovery and
// promotion do before they serve — and refreshes the gauges from where
// that left the world. A leader logs the rounds it runs dry; a promotion
// folds first and drains once it leads.
func (s *Server) drain() error {
	err := s.foldAll()
	if err == nil {
		err = s.stepUntil(quiescence)
	}
	s.refreshGauges()
	return err
}

// stepUntil runs scheduling rounds until the engine has completed target
// rounds or has no work left, whichever comes first.
func (s *Server) stepUntil(target int64) error {
	for s.engine.Rounds() < target {
		worked, err := s.step()
		if err != nil || !worked {
			return err
		}
	}
	return nil
}
