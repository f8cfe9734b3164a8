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

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
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
// checkpoint is taken after this many WAL records have been appended
// since the last one.
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
	// records; 0 means DefaultCheckpointEvery, negative disables
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
	// ReplayedRecords is the number of log records re-admitted.
	ReplayedRecords int
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

// ingestState carries the ingest counters across a restart.
type ingestState struct {
	Accepted  int64              `json:"accepted"`
	Rejected  int64              `json:"rejected"`
	Retried   int64              `json:"retried"`
	Batches   int64              `json:"batches"`
	BatchSize obs.HistogramState `json:"batch_size"`
}

// simMetricState carries the engine's observation-stream metrics (the
// counters and histograms the tracer accumulates round by round; the
// gauges are recomputed from restored state instead).
type simMetricState struct {
	Rounds        int64 `json:"rounds"`
	EventsDone    int64 `json:"events_done"`
	FlowsAdmitted int64 `json:"flows_admitted"`
	FlowsFailed   int64 `json:"flows_failed"`

	FaultsInjected   int64 `json:"faults_injected"`
	RepairEvents     int64 `json:"repair_events"`
	FlowsDisrupted   int64 `json:"flows_disrupted"`
	InstallRetries   int64 `json:"install_retries"`
	InstallRollbacks int64 `json:"install_rollbacks"`

	ECT          obs.HistogramState `json:"ect"`
	QueuingDelay obs.HistogramState `json:"queuing_delay"`
}

// doneTotals is the collector's running totals as the checkpoint spells
// them. They are written under "order", the key documents from before
// the done window used for their admission-order ID list, on purpose: a
// binary of that age decodes the key into []int64 and so refuses this
// document outright, where it would otherwise restore — silently — Stats
// over the window alone and empty Results. Reading goes the other way:
// an ID list (or nothing) under the key leaves present unset, which
// marks the document as one whose Done list is the whole history.
type doneTotals struct {
	metrics.Totals
	present bool
}

func (t doneTotals) MarshalJSON() ([]byte, error) { return json.Marshal(t.Totals) }

func (t *doneTotals) UnmarshalJSON(data []byte) error {
	if len(data) == 0 || data[0] != '{' {
		return nil
	}
	t.present = true
	return json.Unmarshal(data, &t.Totals)
}

// checkpointDoc is the state document a checkpoint freezes: everything
// needed to rebuild a server whose externally-visible behavior is
// indistinguishable from one that never restarted. Its size follows the
// live work — queue, placed flows, scheduled releases — plus at most
// doneWindow records, not the number of events ever completed.
type checkpointDoc struct {
	NextID int64 `json:"next_id"`

	Queue []queuedEvent `json:"queue,omitempty"`
	// Totals folds every completed event; Done lists the done window,
	// the last completions in completion order.
	Totals doneTotals            `json:"order"`
	Done   []metrics.EventRecord `json:"done,omitempty"`

	// Collector scalars not covered by Engine.Probe or Totals.
	DecisionEvals    int   `json:"decision_evals"`
	PlanTimeNs       int64 `json:"plan_time_ns"`
	MakespanNs       int64 `json:"makespan_ns"`
	FaultsInjected   int   `json:"faults_injected"`
	RepairEvents     int   `json:"repair_events"`
	FlowsDisrupted   int   `json:"flows_disrupted"`
	InstallRetries   int   `json:"install_retries"`
	InstallRollbacks int   `json:"install_rollbacks"`

	Engine  sim.EngineState    `json:"engine"`
	Network *snapshot.Snapshot `json:"network"`
	Ingest  ingestState        `json:"ingest"`
	Sim     simMetricState     `json:"sim"`
	RNG     rngState           `json:"rng"`
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

	s.journal = j
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
	state, err := json.Marshal(s.buildCheckpoint())
	if err != nil {
		return fmt.Errorf("ctl: checkpoint: %w", err)
	}
	return s.journal.checkpoint(state, int64(s.engine.Clock()), s.engine.Rounds())
}

// buildCheckpoint captures the full controller state (state loop only).
func (s *Server) buildCheckpoint() *checkpointDoc {
	net := s.planner.Network()
	col := s.engine.Collector()
	met := s.engine.Tracer().Metrics()
	doc := &checkpointDoc{
		NextID:  s.nextID,
		Totals:  doneTotals{Totals: col.Totals()},
		Done:    s.done.ordered(),
		Engine:  s.engine.ExportState(),
		Network: snapshot.Capture(net),

		DecisionEvals:    col.DecisionEvals,
		PlanTimeNs:       int64(col.PlanTime),
		MakespanNs:       int64(col.Makespan),
		FaultsInjected:   col.FaultsInjected,
		RepairEvents:     col.RepairEvents,
		FlowsDisrupted:   col.FlowsDisrupted,
		InstallRetries:   col.InstallRetries,
		InstallRollbacks: col.InstallRollbacks,

		Ingest: ingestState{
			Accepted:  s.ingest.Accepted.Value(),
			Rejected:  s.ingest.Rejected.Value(),
			Retried:   s.ingest.Retried.Value(),
			Batches:   s.ingest.Batches.Value(),
			BatchSize: s.ingest.BatchSize.State(),
		},
		Sim: simMetricState{
			Rounds:        met.Rounds.Value(),
			EventsDone:    met.EventsDone.Value(),
			FlowsAdmitted: met.FlowsAdmitted.Value(),
			FlowsFailed:   met.FlowsFailed.Value(),

			FaultsInjected:   met.FaultsInjected.Value(),
			RepairEvents:     met.RepairEvents.Value(),
			FlowsDisrupted:   met.FlowsDisrupted.Value(),
			InstallRetries:   met.InstallRetries.Value(),
			InstallRollbacks: met.InstallRollbacks.Value(),

			ECT:          met.ECT.State(),
			QueuingDelay: met.QueuingDelay.State(),
		},
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
	if rc, ok := s.sched.(rngCarrier); ok {
		doc.RNG.Scheduler = rc.RNGDraws()
	}
	if rc, ok := net.Selector().(rngCarrier); ok {
		doc.RNG.Selector = rc.RNGDraws()
	}
	return doc
}

// restoreCheckpoint thaws a checkpoint into the freshly built server:
// network flows, engine run state, event table, queue, done window,
// metrics and RNG positions. Runs before the state loop starts.
func (s *Server) restoreCheckpoint(ckpt *wal.Checkpoint) error {
	if ckpt.Format != wal.FormatVersion {
		return fmt.Errorf("ctl: checkpoint format %d, want %d", ckpt.Format, wal.FormatVersion)
	}
	var doc checkpointDoc
	if err := json.Unmarshal(ckpt.State, &doc); err != nil {
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

	// Done events refill the window through the fold a live completion
	// takes. In a current document the list is only the window and Totals
	// replaces the fold's sums; a document from before the window lists
	// every completed event and no totals, so the fold of its list is the
	// totals and the window keeps the last doneWindow of them.
	col := s.engine.Collector()
	for _, r := range doc.Done {
		col.Add(r)
	}
	s.retire()
	if doc.Totals.present {
		col.RestoreTotals(doc.Totals.Totals)
	}
	col.DecisionEvals = doc.DecisionEvals
	col.PlanTime = time.Duration(doc.PlanTimeNs)
	col.Makespan = time.Duration(doc.MakespanNs)
	col.FaultsInjected = doc.FaultsInjected
	col.RepairEvents = doc.RepairEvents
	col.FlowsDisrupted = doc.FlowsDisrupted
	col.InstallRetries = doc.InstallRetries
	col.InstallRollbacks = doc.InstallRollbacks

	s.ingest.Accepted.Add(doc.Ingest.Accepted)
	s.ingest.Rejected.Add(doc.Ingest.Rejected)
	s.ingest.Retried.Add(doc.Ingest.Retried)
	s.ingest.Batches.Add(doc.Ingest.Batches)
	s.ingest.BatchSize.Restore(doc.Ingest.BatchSize)

	met := s.engine.Tracer().Metrics()
	met.Rounds.Add(doc.Sim.Rounds)
	met.EventsDone.Add(doc.Sim.EventsDone)
	met.FlowsAdmitted.Add(doc.Sim.FlowsAdmitted)
	met.FlowsFailed.Add(doc.Sim.FlowsFailed)
	met.FaultsInjected.Add(doc.Sim.FaultsInjected)
	met.RepairEvents.Add(doc.Sim.RepairEvents)
	met.FlowsDisrupted.Add(doc.Sim.FlowsDisrupted)
	met.InstallRetries.Add(doc.Sim.InstallRetries)
	met.InstallRollbacks.Add(doc.Sim.InstallRollbacks)
	met.ECT.Restore(doc.Sim.ECT)
	met.QueuingDelay.Restore(doc.Sim.QueuingDelay)

	if rc, ok := s.sched.(rngCarrier); ok {
		rc.RestoreRNG(doc.RNG.Scheduler)
	}
	if rc, ok := net.Selector().(rngCarrier); ok {
		rc.RestoreRNG(doc.RNG.Selector)
	}
	return nil
}

// refreshGauges recomputes the instantaneous gauges from current state.
func (s *Server) refreshGauges() {
	met := s.engine.Tracer().Metrics()
	met.QueueDepth.Set(int64(s.engine.QueueLen()))
	met.VirtualClock.Set(int64(s.engine.Clock()))
	met.Utilization.Set(s.planner.Network().Utilization())
	met.LinksDown.Set(int64(s.engine.LinksDown()))
}

// replayRecord folds one log record during crash recovery or on a
// follower: step the engine to the record's round stamp, check the
// logical clock, and apply the record through admit / inject — the same
// functions a live request goes through, so the fold that defines what
// the state must be exists once.
func (s *Server) replayRecord(rec *wal.Record) error {
	if err := s.stepUntil(rec.Rounds); err != nil {
		return fmt.Errorf("ctl: replay round: %w", err)
	}
	// A stall short of the stamp means the replayed world has less work
	// than the recorded one did.
	if got := s.engine.Rounds(); got < rec.Rounds {
		return fmt.Errorf("%w: engine stalled at round %d short of recorded round %d",
			ErrReplayDiverged, got, rec.Rounds)
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

	default:
		return fmt.Errorf("%w: record seq %d has unexpected type %d",
			ErrReplayDiverged, rec.ID.Seq, rec.Type)
	}
}

// quiescence as a stepUntil target runs the queue dry.
const quiescence = math.MaxInt64

// drain runs the queue dry — what recovery and promotion do before they
// serve — and refreshes the gauges from where that left the world.
func (s *Server) drain() error {
	err := s.stepUntil(quiescence)
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
