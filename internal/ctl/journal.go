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
	sinceCkpt int
	err       error // sticky: the first durable write that failed

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
	mu         sync.Mutex      // guards fconn, lastErr
	fconn      net.Conn        // live follower-side leader connection
	lastErr    string

	wg sync.WaitGroup // heartbeater, follower stream
}

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
	ri, err := j.log.Replay(afterSeq, fold)
	if err != nil {
		return nil, err
	}
	info.ReplayedRecords = ri.Records
	info.Recovered = info.Recovered || ri.Records > 0
	info.LastSeq = j.log.LastSeq()
	j.met.Replayed.Add(int64(ri.Records))
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

// append logs one record under the next sequence number and stages its
// frame for replication; the frame is published only at commit, so a
// follower never holds records the leader could lose. After a failure
// it does nothing — the record may be half-written and every later ack
// would rest on it — and the next commit says so.
func (j *journal) append(rec *wal.Record) {
	if j == nil || j.err != nil {
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
	j.sinceCkpt++
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

// checkpointDue runs the automatic cadence. A follower checkpoints only
// on the leader's announcement, keeping both logs rotating at identical
// sequences.
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

// applyReplicated appends the leader's records to this follower's own
// log and folds each through fold — the path recovery takes. The
// returned sequence is what the session's ack will attest to, which is
// why the session gets it only once the loop's flush has committed.
func (j *journal) applyReplicated(recs []*wal.Record, fold func(*wal.Record) error) (int64, error) {
	if j.role != roleFollower {
		return 0, fmt.Errorf("ctl: repl apply on a %s", j.role)
	}
	for _, rec := range recs {
		if rec.ID.Seq != j.seq+1 {
			return 0, fmt.Errorf("%w: record seq %d after applied prefix %d", repl.ErrSeqGap, rec.ID.Seq, j.seq)
		}
		j.append(rec)
		if j.err != nil {
			return 0, j.err
		}
		if err := fold(rec); err != nil {
			return 0, err
		}
		j.rmet.RecordsApplied.Inc()
	}
	return j.seq, nil
}

// announced checks a leader's checkpoint announcement against the fold:
// stream ordering guarantees it arrives exactly at the rotation point;
// anything else means the session lost frames.
func (j *journal) announced(seq int64) error {
	if j.role != roleFollower {
		return fmt.Errorf("ctl: repl checkpoint on a %s", j.role)
	}
	if seq != j.seq {
		return fmt.Errorf("%w: checkpoint announced at seq %d, follower applied %d", repl.ErrSeqGap, seq, j.seq)
	}
	return nil
}

// promote flips a follower to leader: stop the stream, drain the fold's
// cascade to quiescence, persist the bumped term — the fence that
// deposes the old leader — and only then serve writes. The drain is
// bounded by replication lag, not log length: the follower folded
// continuously, so only the not-yet-executed tail of admitted work
// remains.
func (j *journal) promote(drain func() error) Response {
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
	if err := drain(); err != nil {
		return Response{OK: false, Error: fmt.Sprintf("ctl: promote drain: %v", err)}
	}
	newTerm := max(j.term, j.leaderTerm.Load()) + 1
	if err := repl.SaveTerm(j.log.Dir(), newTerm); err != nil {
		return Response{OK: false, Error: fmt.Sprintf("ctl: promote: %v", err)}
	}
	j.term = newTerm
	j.rmet.Term.Set(int64(newTerm))
	j.setRole(roleLeader)
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
		info.LagRecords = max(0, j.leaderSeq.Load()-j.seq)
		j.mu.Lock()
		info.LastError = j.lastErr
		j.mu.Unlock()
	case roleLeader:
		info.Followers = j.hub.sessions(j.seq)
	}
	return info
}

// refreshLag recomputes a follower's own lag from the fold it has
// applied, for a registry read on the loop.
func (j *journal) refreshLag() {
	if j != nil && j.role == roleFollower {
		j.rmet.LagRecords.Set(max(0, j.leaderSeq.Load()-j.seq))
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

// close flushes and closes the log once the loop has exited, so
// everything appended is durable before the process goes away.
func (j *journal) close() error {
	if j == nil {
		return nil
	}
	return j.w.Close()
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
