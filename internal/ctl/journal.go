package ctl

// The journal is the durable log as the state loop sees it: one value
// that owns the wal.Log / wal.Writer pair and its rotation, the sequence
// counter and checkpoint cadence, the WAL and replication metrics, role
// and term, and (through the hub) the leader's stage → publish → ack
// gate → announce pipeline. A server without a WAL holds a nil *journal;
// every method the loop calls is nil-safe, so "is there a WAL? am I the
// leader?" is answered in the receiver instead of at each call site.
//
// Who may call what: the state loop (and build, before the loop starts)
// owns every method in this file. The replication goroutines touch only
// what says so — the hub's mutex-guarded side, the atomics, the metric
// gauges — and reach everything else through Server.onLoop.
//
// The rule the journal exists to keep: a reply leaves only after its
// records are durable here and on every synced follower. append never
// reports; the first failed append, commit or rotation sticks, commit
// and checkpoint return it from then on, and the loop answers it in one
// place (Server.failStop) before any reply is released.

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"netupdate/internal/obs"
	"netupdate/internal/repl"
	"netupdate/internal/wal"
)

type journal struct {
	log  *wal.Log
	w    *wal.Writer
	meta wal.Meta

	seq       int64 // last appended sequence
	dirty     bool  // appended since the last commit
	ckptEvery int
	sinceCkpt int   // input records appended since the last checkpoint
	err       error // sticky: the first durable write that failed

	// rounds holds a leader's round records not logged yet, oldest first.
	// Nothing waits on one, so none is sequenced alone: the next input
	// record is appended behind them and its commit makes them durable
	// and publishes them (Close logs what is left). A checkpoint that
	// rotates covers them and drops them.
	rounds []*wal.Record

	met   *obs.WALMetrics
	rmet  *obs.ReplMetrics
	fsync *obs.Histogram

	// Replication. role and term change only on the loop; other
	// goroutines read them from the rmet.Role / rmet.Term gauges.
	role string
	term uint64
	hub  *replHub

	// Follower side: where the leader is and what it last said.
	follow     FollowerConfig
	leaderTerm atomic.Uint64
	leaderSeq  atomic.Int64
	stopFollow chan struct{}
	stopOnce   sync.Once
	closing    <-chan struct{} // the server's shutdown, for the goroutines
	mu         sync.Mutex      // guards fconn, lastErr, foldErr's writes
	fconn      net.Conn        // live follower-side leader connection
	lastErr    string

	// The fold behind the ack: replicated records this follower has
	// appended, committed and acked but not yet folded, oldest first
	// from backlog[head]. The state loop folds them one round at a time
	// between commands (Server.foldNext); a checkpoint and a promotion
	// fold them all first. foldedSeq is the last folded sequence, for the
	// lag the session computes off the loop.
	backlog   []*wal.Record
	head      int
	foldedSeq atomic.Int64
	// foldCap is foldBacklogCap and foldHeld false, fields only so a
	// test can lower the cap and hold the fold (state loop only).
	foldCap  int
	foldHeld bool
	// backlogFull is set by the loop while the backlog is at the cap;
	// the session reads nothing more until foldWake says it shrank.
	backlogFull atomic.Bool
	foldWake    chan struct{}
	// foldErr is the fold's sticky failure: written on the loop under
	// mu, read by the session under mu and by the loop without it.
	foldErr error

	wg sync.WaitGroup // heartbeater, follower stream
}

// foldBacklogCap bounds a follower's unfolded records. At the cap the
// session stops reading, so TCP back-pressure and the leader's outbox
// overflow apply as to any slow follower, and a promotion folds at most
// this many records (plus the frame read last) before it drains. Twice
// the default watermark: a full queue's worth of admissions and the
// next batch fit without stalling the stream.
const foldBacklogCap = 2 * DefaultHighWatermark

// noWALError answers replication requests on a server without a journal.
const noWALError = "ctl: replication requires a WAL"

// newJournal wraps an opened log that has not been recovered yet. meta
// is verified against the log's recorded meta first: a log written
// under a different scheduler/seed/topology would not merely fail to
// converge, it would corrupt the recovery with plausible wrong state.
func newJournal(cfg WALConfig, meta wal.Meta, rc ReplicationConfig, reg *obs.Registry, fsync *obs.Histogram, closing <-chan struct{}) (*journal, error) {
	if lm := cfg.Log.Meta(); lm != nil {
		if err := lm.Check(&meta); err != nil {
			return nil, err
		}
	}
	// Every WAL-backed server carries the replication hub: it accepts
	// follower sessions (up to its configured cap) and its persisted
	// term fences split-brain after a promotion elsewhere.
	term, err := repl.LoadTerm(cfg.Log.Dir())
	if err != nil {
		return nil, err
	}
	j := &journal{
		log:        cfg.Log,
		meta:       meta,
		ckptEvery:  cfg.CheckpointEvery,
		met:        obs.NewWALMetrics(reg),
		rmet:       obs.NewReplMetrics(reg),
		fsync:      fsync,
		term:       term,
		stopFollow: make(chan struct{}),
		closing:    closing,
		foldCap:    foldBacklogCap,
		foldWake:   make(chan struct{}, 1),
	}
	if j.ckptEvery == 0 {
		j.ckptEvery = DefaultCheckpointEvery
	}
	j.hub = newReplHub(j.rmet, rc)
	j.rmet.Term.Set(int64(term))
	j.setRole(roleLeader)
	return j, nil
}

// replay reads the log back: thaw the checkpoint (if any), then fold the
// suffix record by record.
func (j *journal) replay(thaw func(*wal.Checkpoint) error, fold func(*wal.Record) error) (*RecoveryInfo, error) {
	info := &RecoveryInfo{}
	afterSeq := int64(0)
	if ckpt := j.log.Checkpoint(); ckpt != nil {
		if err := thaw(ckpt); err != nil {
			return nil, err
		}
		afterSeq = ckpt.ID.Seq
		info.Recovered = true
		info.CheckpointSeq = ckpt.ID.Seq
		j.met.CheckpointSeq.Set(ckpt.ID.Seq)
	}
	ri, err := j.log.Replay(afterSeq, func(rec *wal.Record) error {
		if rec.Type == wal.TypeRound {
			info.ReplayedRounds++
		}
		return fold(rec)
	})
	if err != nil {
		return nil, err
	}
	info.ReplayedRecords = ri.Records - info.ReplayedRounds
	info.Recovered = info.Recovered || ri.Records > 0
	info.LastSeq = j.log.LastSeq()
	j.met.Replayed.Add(int64(info.ReplayedRecords))
	j.met.ReplayedRounds.Add(int64(info.ReplayedRounds))
	return info, nil
}

// open starts appending where the replayed log ends; vt and rounds stamp
// the first segment of a fresh log.
func (j *journal) open(vt, rounds int64) error {
	w, err := j.log.OpenWriter(&j.meta, wal.ID{VT: vt, Seq: j.log.LastSeq()}, rounds)
	if err != nil {
		return err
	}
	j.setWriter(w)
	j.seq = w.LastSeq()
	j.foldedSeq.Store(j.seq)
	j.met.LastSeq.Set(j.seq)
	return nil
}

// setWriter adopts the active segment's writer (open, every rotation),
// routes its per-fsync wall durations into the latency histogram and
// publishes its sync policy.
func (j *journal) setWriter(w *wal.Writer) {
	j.w = w
	w.SetSyncObserver(j.fsync.Observe)
	j.met.Info.Set(map[string]string{"sync_policy": w.Policy().String()})
}

func (j *journal) fail(op string, err error) error {
	j.err = fmt.Errorf("ctl: %s: %w", op, err)
	return j.err
}

func (j *journal) setRole(role string) {
	j.role = role
	j.rmet.Role.Set(roleCode[role])
}

// leads reports whether the loop logs its rounds: only a leader with an
// open log does.
func (j *journal) leads() bool { return j != nil && j.role == roleLeader }

// folding reports whether the engine may only advance through the
// replicated fold. True exactly while following: the leader stamps each
// record with its round count at admission, and the follower
// reconstructs state by stepping to that stamp, so rounds run anywhere
// else overshoot the next record's stamp — the leader admits mid-cascade
// under pipelined load — and fail the fold's clock assertion. Promotion
// drains the backlog and flips the role, which re-enables free-running
// rounds.
func (j *journal) folding() bool { return j != nil && j.role == roleFollower }

// writable reports whether the loop may admit a write: only the leader
// does — a follower's state is a fold of the leader's log, and a deposed
// leader writing would dual-write. Otherwise the response is the typed
// not-leader rejection.
func (j *journal) writable() (Response, bool) {
	if j == nil || j.role == roleLeader {
		return Response{}, true
	}
	info := &NotLeaderInfo{Role: j.role, Term: j.term}
	if j.role == roleFollower {
		info.LeaderAddr = j.follow.LeaderAddr
	}
	err := &NotLeaderError{Role: info.Role, Term: info.Term, LeaderAddr: info.LeaderAddr}
	return Response{OK: false, Error: err.Error(), NotLeader: info}, false
}

// logRound holds a leader's round record until the next input record is
// appended (see rounds); a failed journal keeps none.
func (j *journal) logRound(rec *wal.Record) {
	if j.err == nil {
		j.rounds = append(j.rounds, rec)
	}
}

// append logs one record under the next sequence number — an input on
// the leader behind the round records held for it — and stages its frame
// for replication; the frame is published only at commit, so a follower
// never holds records the leader could lose. After a failure it does
// nothing — the record may be half-written and every later ack would
// rest on it — and the next commit says so.
func (j *journal) append(rec *wal.Record) {
	if j == nil || j.err != nil {
		return
	}
	for i, r := range j.rounds {
		j.rounds[i] = nil
		j.write(r)
	}
	j.rounds = j.rounds[:0]
	j.write(rec)
}

// write appends one record; the checkpoint cadence counts input records
// only.
func (j *journal) write(rec *wal.Record) {
	if j.err != nil {
		return
	}
	rec.ID.Seq = j.seq + 1
	if err := j.w.Append(rec); err != nil {
		j.fail("wal append", err)
		return
	}
	frame := j.w.LastFrame()
	j.seq = rec.ID.Seq
	j.dirty = true
	if rec.Type != wal.TypeRound {
		j.sinceCkpt++
	}
	j.met.Appends.Inc()
	j.met.Bytes.Add(int64(len(frame)))
	j.met.LastSeq.Set(j.seq)
	if j.role == roleLeader {
		j.hub.stage(frame)
	}
}

// commit makes every appended record durable per the sync policy, and on
// the leader publishes what it made durable and holds until every synced
// follower acked it (or timed out and was dropped). The loop releases
// replies only after a nil return. With nothing appended since the last
// commit there is nothing to wait for.
func (j *journal) commit() error {
	if j == nil {
		return nil
	}
	if j.err != nil || !j.dirty {
		return j.err
	}
	c0, y0 := j.w.Stats()
	if err := j.w.Commit(); err != nil {
		return j.fail("wal commit", err)
	}
	c1, y1 := j.w.Stats()
	j.met.Commits.Add(c1 - c0)
	j.met.Syncs.Add(y1 - y0)
	j.dirty = false
	if j.role == roleLeader {
		if err := j.hub.publish(); err != nil {
			return j.fail("repl publish", err)
		}
		j.hub.gate(j.seq)
	}
	return nil
}

// checkpointDue runs the automatic cadence, which counts input records
// only. A follower checkpoints only on the leader's announcement, keeping
// both logs rotating at identical sequences.
func (j *journal) checkpointDue() bool {
	return j != nil && j.err == nil && j.ckptEvery > 0 && j.sinceCkpt >= j.ckptEvery && j.role != roleFollower
}

// checkpoint freezes state (the folded server at vt / rounds) at the
// current sequence, rotates the log onto a fresh segment based there and
// purges the covered segments, then tells the followers. Call at a
// flushed sequence point. This is where an off-loop checkpoint plugs in:
// everything after the caller captured state touches only the journal.
func (j *journal) checkpoint(state []byte, vt, rounds int64) error {
	if j.err != nil {
		return j.err
	}
	id := wal.ID{VT: vt, Seq: j.seq}
	w, err := j.log.Rotate(j.w, state, id, rounds)
	if err != nil {
		// Rotate closed the old writer: nothing can be appended anymore.
		return j.fail("checkpoint", err)
	}
	if w == j.w {
		// Nothing appended since the segment's base: the log kept its
		// writer and its checkpoint, and there is nothing to announce.
		return nil
	}
	j.setWriter(w)
	j.sinceCkpt = 0
	// The checkpoint holds what the held round records would redo.
	clear(j.rounds)
	j.rounds = j.rounds[:0]
	j.met.Checkpoints.Inc()
	j.met.CheckpointSeq.Set(id.Seq)
	if j.role == roleLeader {
		if err := j.hub.announce(id, rounds); err != nil {
			return j.fail("repl announce", err)
		}
	}
	return nil
}

// attach judges a follower's Hello at a flushed sequence point — every
// frame ≤ seq committed and published, nothing staged — and registers
// the session when accepted. The session then reads (AfterSeq, seq]
// straight from the returned segments while its outbox accumulates
// (seq, ∞): exact order, no gaps, no duplicates. ckpt is non-nil when
// the bootstrap snapshot must precede the records.
func (j *journal) attach(h *repl.Hello, f *replFollower) (w *repl.Welcome, ckpt *wal.Checkpoint, segs []wal.SegmentInfo) {
	if j == nil {
		return &repl.Welcome{Code: repl.CodeNoWAL, Detail: "server runs without a WAL"}, nil, nil
	}
	var ckptSeq int64
	if ckpt = j.log.Checkpoint(); ckpt != nil {
		ckptSeq = ckpt.ID.Seq
	}
	v := repl.Verdict{Code: repl.CodeNotLeader, Detail: fmt.Sprintf("server is a %s at term %d", j.role, j.term)}
	if j.role == roleLeader {
		v = repl.Judge(j.term, j.seq, ckptSeq, &j.meta, int(j.rmet.Followers.Value()), j.hub.maxFollowers, h)
	}
	if v.Deposed {
		// A higher term is out there: read-only from here on.
		j.setRole(roleDeposed)
	}
	if v.Code != "" {
		return &repl.Welcome{Code: v.Code, Detail: v.Detail, Term: j.term}, nil, nil
	}
	j.hub.register(f, h.AfterSeq, j.seq)
	if !v.SendCheckpoint {
		ckpt = nil
	}
	return &repl.Welcome{Term: j.term, LastSeq: j.seq, CheckpointSeq: ckptSeq, Snapshot: ckpt != nil},
		ckpt, append([]wal.SegmentInfo(nil), j.log.Segments()...)
}

// appendReplicated appends the leader's records to this follower's own
// log and queues them for the fold. The returned sequence is what the
// session's ack will attest to — durability, not the fold — which is
// why the session gets it only once the loop's flush has committed.
func (j *journal) appendReplicated(recs []*wal.Record) (int64, error) {
	if j.role != roleFollower {
		return 0, fmt.Errorf("ctl: repl apply on a %s", j.role)
	}
	if j.foldErr != nil {
		return 0, j.foldErr
	}
	for _, rec := range recs {
		if rec.ID.Seq != j.seq+1 {
			return 0, fmt.Errorf("%w: record seq %d after appended prefix %d", repl.ErrSeqGap, rec.ID.Seq, j.seq)
		}
		j.append(rec)
		if j.err != nil {
			return 0, j.err
		}
	}
	if j.head > 0 && len(j.backlog)+len(recs) > cap(j.backlog) {
		// Reuse the folded prefix's room before growing.
		n := copy(j.backlog, j.backlog[j.head:])
		clear(j.backlog[n:])
		j.backlog, j.head = j.backlog[:n], 0
	}
	j.backlog = append(j.backlog, recs...)
	j.backlogFull.Store(j.unfolded() >= j.foldCap)
	return j.seq, nil
}

// unfolded counts the backlog (0 without a journal).
func (j *journal) unfolded() int {
	if j == nil {
		return 0
	}
	return len(j.backlog) - j.head
}

// foldPending reports whether the loop has fold work to poll for: a
// backlog that is neither failed nor held.
func (j *journal) foldPending() bool {
	return j.unfolded() > 0 && j.foldErr == nil && !j.foldHeld
}

// nextUnfolded is the oldest unfolded record, or the fold's failure.
func (j *journal) nextUnfolded() (*wal.Record, error) {
	if j.foldErr != nil {
		return nil, j.foldErr
	}
	return j.backlog[j.head], nil
}

// folded pops the record the fold just applied, and wakes the session
// if that took the backlog below the cap.
func (j *journal) folded() {
	rec := j.backlog[j.head]
	j.backlog[j.head] = nil
	j.head++
	if j.head == len(j.backlog) {
		j.backlog, j.head = j.backlog[:0], 0
	}
	j.foldedSeq.Store(rec.ID.Seq)
	j.rmet.RecordsApplied.Inc()
	if j.backlogFull.Load() && j.unfolded() < j.foldCap {
		j.backlogFull.Store(false)
		j.wakeSession()
	}
}

// failFold makes a fold error sticky: the fold stops, the session reads
// it on its next step (its connection is closed under it) and ends, and
// replication status shows it. Reconnecting would fail the same way.
func (j *journal) failFold(err error) error {
	j.mu.Lock()
	j.foldErr = err
	j.lastErr = fmt.Errorf("%w: %v", errFoldFailed, err).Error()
	if j.fconn != nil {
		_ = j.fconn.Close()
	}
	j.mu.Unlock()
	j.backlogFull.Store(false)
	j.wakeSession()
	return err
}

// foldFailure is the fold's sticky failure as the session returns it
// (nil while the fold is healthy).
func (j *journal) foldFailure() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.foldErr == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", errFoldFailed, j.foldErr)
}

func (j *journal) wakeSession() {
	select {
	case j.foldWake <- struct{}{}:
	default:
	}
}

// awaitFold holds the session while the backlog is at the cap (the
// session goroutine, between frames).
func (j *journal) awaitFold() error {
	for j.backlogFull.Load() {
		select {
		case <-j.foldWake:
		case <-j.stopFollow:
			return errPromoted
		case <-j.closing:
			return errPromoted
		}
	}
	return j.foldFailure()
}

// lag is this follower's lag behind a leader standing at leaderSeq: the
// records it has not folded yet, which is what a promotion must fold. A
// heartbeat read before the leader's last commit can trail what this
// follower already appended, so the appended sequence counts too.
func (j *journal) lag(leaderSeq int64) int64 {
	return max(0, max(leaderSeq, j.met.LastSeq.Value())-j.foldedSeq.Load())
}

// observeLag records the lag behind leaderSeq (the session goroutine).
func (j *journal) observeLag(leaderSeq int64) {
	lag := j.lag(leaderSeq)
	j.rmet.LagRecords.Set(lag)
	j.rmet.Lag.Observe(lag)
}

// announced checks a leader's checkpoint announcement against the log:
// stream ordering guarantees it arrives exactly at the rotation point;
// anything else means the session lost frames.
func (j *journal) announced(seq int64) error {
	if j.role != roleFollower {
		return fmt.Errorf("ctl: repl checkpoint on a %s", j.role)
	}
	if seq != j.seq {
		return fmt.Errorf("%w: checkpoint announced at seq %d, follower appended %d", repl.ErrSeqGap, seq, j.seq)
	}
	return nil
}

// promote flips a follower to leader: stop the stream, fold the backlog,
// persist the bumped term — the fence that deposes the old leader — and
// drain the cascade to quiescence as the leader, logging its rounds as
// the old leader would have, and only then serve writes. The drain is
// bounded by the fold cap, not log length: the follower folded
// continuously behind its acks, so only the unfolded backlog and the
// not-yet-executed tail of admitted work remain.
func (j *journal) promote(fold, drain func() error) Response {
	if j == nil {
		return Response{OK: false, Error: noWALError}
	}
	switch j.role {
	case roleLeader:
		// Idempotent: an operator promote racing the watchdog's is fine.
		return Response{OK: true, Repl: j.info()}
	case roleDeposed:
		return Response{OK: false,
			Error:     "ctl: deposed leader cannot be promoted; restart it as a follower",
			NotLeader: &NotLeaderInfo{Role: j.role, Term: j.term}}
	}
	started := time.Now()
	j.stopFollowing()
	if err := fold(); err != nil {
		return Response{OK: false, Error: fmt.Sprintf("ctl: promote drain: %v", err)}
	}
	newTerm := max(j.term, j.leaderTerm.Load()) + 1
	if err := repl.SaveTerm(j.log.Dir(), newTerm); err != nil {
		return Response{OK: false, Error: fmt.Sprintf("ctl: promote: %v", err)}
	}
	j.term = newTerm
	j.rmet.Term.Set(int64(newTerm))
	j.setRole(roleLeader)
	if err := drain(); err != nil {
		return Response{OK: false, Error: fmt.Sprintf("ctl: promote drain: %v", err)}
	}
	elapsed := time.Since(started)
	j.rmet.Promotions.Inc()
	j.rmet.Failover.Observe(elapsed.Nanoseconds())
	j.rmet.FailoverMs.Set(elapsed.Milliseconds())
	j.rmet.LagRecords.Set(0)
	return Response{OK: true, Repl: j.info()}
}

// info renders the OpReplStatus payload (nil without a journal).
func (j *journal) info() *ReplInfo {
	if j == nil {
		return nil
	}
	info := &ReplInfo{Role: j.role, Term: j.term, LastSeq: j.seq, FailoverMs: j.rmet.FailoverMs.Value()}
	switch j.role {
	case roleFollower:
		info.LeaderAddr = j.follow.LeaderAddr
		info.LagRecords = j.lag(j.leaderSeq.Load())
		j.mu.Lock()
		info.LastError = j.lastErr
		j.mu.Unlock()
	case roleLeader:
		info.Followers = j.hub.sessions(j.seq)
	}
	return info
}

// refreshLag recomputes a follower's own lag, for a registry read on
// the loop.
func (j *journal) refreshLag() {
	if j != nil && j.role == roleFollower {
		j.rmet.LagRecords.Set(j.lag(j.leaderSeq.Load()))
	}
}

// heartbeats is the leader's beacon loop: liveness for follower
// watchdogs plus lag bookkeeping, both off the heartbeat cadence.
func (j *journal) heartbeats() {
	defer j.wg.Done()
	t := time.NewTicker(j.hub.hbEvery)
	defer t.Stop()
	for {
		select {
		case <-j.closing:
			return
		case <-t.C:
		}
		if j.rmet.Role.Value() == roleCode[roleLeader] {
			j.hub.heartbeat(uint64(j.rmet.Term.Value()), j.met.LastSeq.Value())
		}
	}
}

// stop ends the replication goroutines. They send loop commands, so
// Close calls it before it lets the loop return.
func (j *journal) stop() {
	if j == nil {
		return
	}
	j.stopFollowing()
	j.wg.Wait()
}

// close logs the held round records, then flushes and closes the log
// once the loop has exited, so everything appended is durable before the
// process goes away.
func (j *journal) close() error {
	if j == nil {
		return nil
	}
	failed := j.err != nil
	for _, r := range j.rounds {
		j.write(r)
	}
	j.rounds = nil
	err := j.w.Close()
	if !failed && j.err != nil {
		err = j.err
	}
	return err
}

// stopped reports whether following has ended: promotion, or the server
// is closing.
func (j *journal) stopped() bool {
	select {
	case <-j.stopFollow:
		return true
	case <-j.closing:
		return true
	default:
		return false
	}
}

// stopFollowing ends the follower loop: no reconnects, no auto-promote.
func (j *journal) stopFollowing() {
	j.stopOnce.Do(func() { close(j.stopFollow) })
	j.mu.Lock()
	if j.fconn != nil {
		_ = j.fconn.Close()
	}
	j.mu.Unlock()
}

// setConn tracks the live leader connection so stopFollowing can
// interrupt a blocked read.
func (j *journal) setConn(c net.Conn) {
	j.mu.Lock()
	j.fconn = c
	stopped := j.stopped()
	j.mu.Unlock()
	if stopped && c != nil {
		_ = c.Close()
	}
}

func (j *journal) setLastErr(msg string) {
	j.mu.Lock()
	j.lastErr = msg
	j.mu.Unlock()
}
