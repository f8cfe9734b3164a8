package ctl

// WAL replication: a leader streams committed log frames to warm
// followers; a follower folds them through the crash-recovery replay
// path and can be promoted when the leader is lost.
//
// The wire protocol and term discipline live in internal/repl; this
// file owns the server wiring on both sides:
//
//   - Leader: walAppend stages each record's frame bytes when followers
//     are registered; walCommit publishes the staged frames to every
//     follower outbox and then gates the reply release on synced
//     followers' acks (group commit) — an acked event is durable on the
//     follower too, so promotion loses nothing a client was told
//     succeeded. A follower that overflows its outbox or misses the ack
//     deadline is dropped and the leader continues solo (availability
//     over replication; the drop is counted and visible in Stats).
//   - Follower: a session goroutine reads frames off the leader
//     connection and hands them to the state loop, which appends them
//     to the follower's own WAL and folds them through replayRecord —
//     the exact path recovery takes, so a promoted follower is the
//     state a never-crashed server holding the same prefix would be in.
//     Checkpoints are taken only on the leader's announcement, keeping
//     both logs rotating at the same sequences.
//
// Session ordering makes the stream gap-free: attach is a state-loop
// command, so it observes a sequence point S with every frame ≤ S
// committed (the batch flushes before non-submit commands) and nothing
// published past S yet. The session then reads (afterSeq, S] straight
// from the segment files (wal.EmitFrames) while the outbox accumulates
// (S, ∞) — exact order, no gaps, no duplicates.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/obs"
	"netupdate/internal/repl"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
	"netupdate/internal/wal"
)

// Replication roles.
const (
	roleLeader   = "leader"
	roleFollower = "follower"
	// roleDeposed is a former leader that observed a higher term: it
	// serves reads but never writes again (split-brain rule).
	roleDeposed = "deposed"
)

// roleCode maps a role to its metric encoding.
func roleCode(role string) int64 {
	switch role {
	case roleFollower:
		return 1
	case roleDeposed:
		return 2
	default:
		return 0
	}
}

// Replication tunables.
const (
	// DefaultMaxFollowers bounds concurrent replication sessions; the
	// single-follower default matches the one-warm-standby deployment
	// (see ROADMAP for sharded multi-follower plans).
	DefaultMaxFollowers = 1
	// DefaultAckTimeout is how long a group commit waits for a synced
	// follower's ack before dropping it and continuing solo.
	DefaultAckTimeout = 5 * time.Second
	// DefaultHeartbeatEvery is the leader's liveness beacon cadence.
	DefaultHeartbeatEvery = 500 * time.Millisecond
	// DefaultReconnectEvery is the follower's redial backoff.
	DefaultReconnectEvery = 200 * time.Millisecond
	// DefaultDialTimeout bounds the follower's TCP connect.
	DefaultDialTimeout = 5 * time.Second

	// replHandshakeTimeout bounds each handshake read (Hello, Welcome,
	// bootstrap checkpoint) so a stalled peer cannot pin a session.
	replHandshakeTimeout = 30 * time.Second
	// replWriteTimeout bounds each stream write.
	replWriteTimeout = 10 * time.Second
	// replOutboxDepth is the per-follower outbox in frames (one frame
	// per commit or heartbeat); overflowing it drops the follower.
	replOutboxDepth = 8192
	// replBatchBytes caps one KindRecords frame during catch-up and
	// between commits, keeping frames well under repl.MaxPayload.
	replBatchBytes = 256 << 10
)

// ReplicationConfig tunes the leader side of WAL replication
// (Config.Replication).
type ReplicationConfig struct {
	// MaxFollowers caps registered sessions (0 = DefaultMaxFollowers).
	MaxFollowers int
	// AckTimeout bounds the group-commit wait on synced followers
	// (0 = DefaultAckTimeout).
	AckTimeout time.Duration
	// HeartbeatEvery is the liveness beacon cadence (0 = default).
	HeartbeatEvery time.Duration
}

// errFoldFailed marks a follower-side apply error (sequence gap, replay
// divergence, checkpoint misalignment). It is terminal: reconnecting
// would deterministically fail again.
var errFoldFailed = errors.New("ctl: replication fold failed")

// errPromoted ends a follower session because this server was promoted.
var errPromoted = errors.New("ctl: promoted")

// replState is the per-server replication hub. role and term are state-
// loop confined; the atomic mirrors serve connection handlers, the
// heartbeater and /metrics.
type replState struct {
	s   *Server
	met *obs.ReplMetrics

	// State-loop confined.
	role string
	term uint64

	// Atomic mirrors.
	roleA      atomic.Int64
	termA      atomic.Uint64
	nFollowers atomic.Int64
	nSynced    atomic.Int64
	failoverMs atomic.Int64

	maxFollowers int
	ackTimeout   time.Duration
	hbEvery      time.Duration

	mu        sync.Mutex
	acked     *sync.Cond // signaled on acks, drops and detaches
	followers map[*replFollower]struct{}
	lastErr   string
	fconn     net.Conn // live follower-side leader connection

	// Leader publish pipeline: walAppend stages raw frame bytes here,
	// walCommit wraps them in KindRecords frames and fans them out.
	// State-loop confined.
	pending     []byte
	chunks      [][]byte
	pendingRecs int64

	// Follower side.
	fcfg         *FollowerConfig
	leaderAddr   string
	promoteAfter time.Duration
	backoff      time.Duration
	dialTimeout  time.Duration
	leaderTerm   atomic.Uint64
	leaderSeq    atomic.Int64
	stopFollow   chan struct{}
	stopOnce     sync.Once

	wg sync.WaitGroup
}

func newReplState(s *Server, term uint64, rc ReplicationConfig) *replState {
	r := &replState{
		s:            s,
		met:          obs.NewReplMetrics(s.registry),
		term:         term,
		maxFollowers: rc.MaxFollowers,
		ackTimeout:   rc.AckTimeout,
		hbEvery:      rc.HeartbeatEvery,
		followers:    make(map[*replFollower]struct{}),
		backoff:      DefaultReconnectEvery,
		dialTimeout:  DefaultDialTimeout,
		stopFollow:   make(chan struct{}),
	}
	if r.maxFollowers <= 0 {
		r.maxFollowers = DefaultMaxFollowers
	}
	if r.ackTimeout <= 0 {
		r.ackTimeout = DefaultAckTimeout
	}
	if r.hbEvery <= 0 {
		r.hbEvery = DefaultHeartbeatEvery
	}
	r.acked = sync.NewCond(&r.mu)
	r.termA.Store(term)
	r.met.Term.Set(int64(term))
	r.setRole(roleLeader)
	return r
}

// setRole flips the replication role (state loop, or before start).
func (r *replState) setRole(role string) {
	r.role = role
	r.roleA.Store(roleCode(role))
	r.met.Role.Set(roleCode(role))
}

// stepDown makes a deposed leader read-only after observing a higher
// term. Never called on followers.
func (r *replState) stepDown() {
	if r.role == roleLeader {
		r.setRole(roleDeposed)
	}
}

func (r *replState) setLastErr(err error) {
	r.mu.Lock()
	if err == nil {
		r.lastErr = ""
	} else {
		r.lastErr = err.Error()
	}
	r.mu.Unlock()
}

// wake broadcasts the ack condition. Taking the mutex first is what
// prevents a lost wakeup between gate's predicate check and its Wait.
func (r *replState) wake() {
	r.mu.Lock()
	r.acked.Broadcast()
	r.mu.Unlock()
}

// stopped reports whether following was stopped (promotion or Close).
func (r *replState) stopped() bool {
	select {
	case <-r.stopFollow:
		return true
	default:
		return false
	}
}

// stopFollowing ends the follower loop: no reconnects, no auto-promote.
func (r *replState) stopFollowing() {
	r.stopOnce.Do(func() { close(r.stopFollow) })
	r.mu.Lock()
	if r.fconn != nil {
		_ = r.fconn.Close()
	}
	r.mu.Unlock()
}

// setConn tracks the live leader connection so stopFollowing can
// interrupt a blocked read.
func (r *replState) setConn(c net.Conn) {
	r.mu.Lock()
	r.fconn = c
	stopped := r.stopped()
	r.mu.Unlock()
	if stopped && c != nil {
		_ = c.Close()
	}
}

// replFollower is one registered replication session on the leader.
type replFollower struct {
	addr string
	conn net.Conn
	// out carries encoded stream frames from the state loop (and the
	// heartbeater) to the session's writer goroutine.
	out  chan []byte
	done chan struct{}
	once sync.Once

	acked atomic.Int64
	// syncTarget is the leader's walSeq at registration: acking through
	// it makes the follower synced, joining the group-commit gate.
	syncTarget int64
	synced     atomic.Bool
	failed     atomic.Bool
}

// shut closes the session exactly once.
func (f *replFollower) shut() {
	f.once.Do(func() {
		_ = f.conn.Close()
		close(f.done)
	})
}

// fail marks the session dead (drop, ack error) and shuts it.
func (f *replFollower) fail() {
	f.failed.Store(true)
	f.shut()
}

// detach unregisters a session (any goroutine).
func (r *replState) detach(f *replFollower) {
	r.mu.Lock()
	_, present := r.followers[f]
	delete(r.followers, f)
	r.mu.Unlock()
	f.shut()
	if !present {
		return
	}
	r.met.Followers.Set(r.nFollowers.Add(-1))
	if f.synced.Load() {
		r.met.SyncedFollowers.Set(r.nSynced.Add(-1))
	}
	r.wake()
}

// stage buffers one just-appended record's frame bytes for publication
// at the next commit (state loop, from walAppend). No-op without
// registered followers — they will read the frames from the segment
// files at attach instead.
func (r *replState) stage(rec *wal.Record) {
	if r.role != roleLeader || r.nFollowers.Load() == 0 {
		return
	}
	buf, err := wal.AppendFrame(r.pending, rec)
	if err != nil {
		// The WAL writer just encoded this same record successfully.
		panic(fmt.Sprintf("ctl: repl stage: %v", err))
	}
	r.pending = buf
	r.pendingRecs++
	if len(r.pending) >= replBatchBytes {
		r.chunks = append(r.chunks, r.pending)
		r.pending = nil
	}
}

// publish fans the staged frames out to every follower outbox (state
// loop, from walCommit after the records became durable — a follower
// must never hold records the leader could still lose).
func (r *replState) publish() {
	if r.pendingRecs == 0 {
		return
	}
	for _, chunk := range r.chunks {
		r.fanoutRecords(chunk)
	}
	if len(r.pending) > 0 {
		r.fanoutRecords(r.pending)
	}
	r.met.RecordsSent.Add(r.pendingRecs)
	r.chunks = nil
	r.pending = r.pending[:0]
	r.pendingRecs = 0
}

func (r *replState) fanoutRecords(frames []byte) {
	buf, err := repl.AppendRecords(nil, frames)
	if err != nil {
		panic(fmt.Sprintf("ctl: repl publish: %v", err))
	}
	r.fanout(buf)
}

// fanout offers one encoded stream frame to every live follower; an
// outbox overflow means the follower cannot keep up even with 8k frames
// of slack, so it is dropped rather than blocking the state loop.
func (r *replState) fanout(frame []byte) {
	r.mu.Lock()
	for f := range r.followers {
		if f.failed.Load() {
			continue
		}
		select {
		case f.out <- frame:
		default:
			f.fail()
			r.met.FollowerDrops.Inc()
		}
	}
	r.acked.Broadcast()
	r.mu.Unlock()
}

// announce tells followers the leader checkpointed at id (state loop,
// from doCheckpoint). The staged buffer is always empty here — every
// path into doCheckpoint runs after a flush.
func (r *replState) announce(id wal.ID, rounds int64) {
	ck := &wal.Checkpoint{Format: wal.FormatVersion, ID: id, Rounds: rounds}
	buf, err := repl.AppendCheckpoint(nil, ck, false)
	if err != nil {
		panic(fmt.Sprintf("ctl: repl announce: %v", err))
	}
	r.fanout(buf)
}

// gate blocks the state loop until every synced follower has acked
// through seq, or the ack timeout drops the laggards (state loop, from
// walCommit after publish). This is the group-commit fence: replies
// held behind it are released only once the acked events are durable on
// every synced follower.
func (r *replState) gate(seq int64) {
	if r.nSynced.Load() == 0 {
		return
	}
	deadline := time.Now().Add(r.ackTimeout)
	// The timer broadcasts under the mutex: it cannot fire between the
	// predicate check and Wait, so the wakeup is never lost.
	timer := time.AfterFunc(r.ackTimeout, r.wake)
	defer timer.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		waiting := false
		for f := range r.followers {
			if f.synced.Load() && !f.failed.Load() && f.acked.Load() < seq {
				waiting = true
				break
			}
		}
		if !waiting {
			return
		}
		if !time.Now().Before(deadline) {
			// Availability over replication: drop the laggards and
			// continue solo. The drop is counted and visible in Stats.
			for f := range r.followers {
				if f.synced.Load() && !f.failed.Load() && f.acked.Load() < seq {
					f.fail()
					r.met.FollowerDrops.Inc()
				}
			}
			return
		}
		r.acked.Wait()
	}
}

// replHeartbeats is the leader's beacon loop: liveness for follower
// watchdogs plus lag bookkeeping, both ways off the heartbeat cadence.
func (s *Server) replHeartbeats() {
	r := s.repl
	defer r.wg.Done()
	t := time.NewTicker(r.hbEvery)
	defer t.Stop()
	for {
		select {
		case <-s.closing:
			return
		case <-t.C:
		}
		if r.roleA.Load() != roleCode(roleLeader) || r.nFollowers.Load() == 0 {
			continue
		}
		last := s.walMet.LastSeq.Value()
		frame, err := repl.AppendHeartbeat(nil, r.termA.Load(), last)
		if err != nil {
			continue
		}
		var worst int64
		r.mu.Lock()
		for f := range r.followers {
			if f.failed.Load() {
				continue
			}
			select {
			case f.out <- frame:
				r.met.HeartbeatsSent.Inc()
			default:
				f.fail()
				r.met.FollowerDrops.Inc()
			}
			lag := max(0, last-f.acked.Load())
			r.met.Lag.Observe(lag)
			worst = max(worst, lag)
		}
		r.mu.Unlock()
		r.met.LagRecords.Set(worst)
	}
}

// replCmd kinds routed through the state loop.
type replCmdKind int

const (
	replAttach replCmdKind = iota
	replApply
	replCkpt
)

// replCmd is an internal replication command carried by the command
// channel alongside wire requests.
type replCmd struct {
	kind     replCmdKind
	hello    *repl.Hello
	follower *replFollower
	recs     []*wal.Record
	ckptSeq  int64
}

// replReply is the state loop's answer to a replCmd.
type replReply struct {
	verdict repl.Verdict
	term    uint64
	walSeq  int64
	ckptSeq int64
	segs    []wal.SegmentInfo
	ckpt    *wal.Checkpoint

	appliedSeq int64
}

// dispatchRepl routes an internal replication command to the state loop.
func (s *Server) dispatchRepl(rc *replCmd) (*replReply, error) {
	select {
	case <-s.closing:
		return nil, ErrServerClosed
	default:
	}
	cmd := command{repl: rc, reply: make(chan Response, 1)}
	select {
	case s.cmds <- cmd:
		resp := <-cmd.reply
		if !resp.OK {
			return nil, errors.New(resp.Error)
		}
		return resp.repl, nil
	case <-s.closing:
		return nil, ErrServerClosed
	}
}

// handleReplCmd executes one replication command (state loop only; the
// batch was flushed first, so every record ≤ walSeq is committed and
// the publish buffer is empty).
func (s *Server) handleReplCmd(rc *replCmd) Response {
	r := s.repl
	switch rc.kind {
	case replAttach:
		if r == nil || s.wal == nil {
			return Response{OK: true, repl: &replReply{verdict: repl.Verdict{
				Code: repl.CodeNoWAL, Detail: "server runs without a WAL",
			}}}
		}
		var ckptSeq int64
		ckpt := s.walLog.Checkpoint()
		if ckpt != nil {
			ckptSeq = ckpt.ID.Seq
		}
		if r.role != roleLeader {
			return Response{OK: true, repl: &replReply{verdict: repl.Verdict{
				Code:   repl.CodeNotLeader,
				Detail: fmt.Sprintf("server is a %s at term %d", r.role, r.term),
			}, term: r.term}}
		}
		v := repl.Judge(r.term, s.walSeq, ckptSeq, &s.walMeta,
			int(r.nFollowers.Load()), r.maxFollowers, rc.hello)
		if v.Deposed {
			r.stepDown()
		}
		if v.Code != "" {
			return Response{OK: true, repl: &replReply{verdict: v, term: r.term}}
		}
		f := rc.follower
		f.syncTarget = s.walSeq
		if rc.hello.AfterSeq >= s.walSeq {
			// Already caught up at attach (idle leader, exact resume):
			// acks only flow after records do, so flip synced now or a
			// quiet leader would never admit the follower to the gate.
			f.acked.Store(rc.hello.AfterSeq)
			f.synced.Store(true)
		}
		r.mu.Lock()
		r.followers[f] = struct{}{}
		r.mu.Unlock()
		r.met.Followers.Set(r.nFollowers.Add(1))
		if f.synced.Load() {
			r.met.SyncedFollowers.Set(r.nSynced.Add(1))
		}
		rep := &replReply{
			verdict: v, term: r.term, walSeq: s.walSeq, ckptSeq: ckptSeq,
			segs: append([]wal.SegmentInfo(nil), s.walLog.Segments()...),
		}
		if v.SendCheckpoint {
			rep.ckpt = ckpt
		}
		return Response{OK: true, repl: rep}

	case replApply:
		if r == nil || r.role != roleFollower {
			return Response{OK: false, Error: fmt.Sprintf("ctl: repl apply on a %s", replRoleOf(r))}
		}
		for _, rec := range rc.recs {
			if rec.ID.Seq != s.walSeq+1 {
				return Response{OK: false, Error: fmt.Sprintf(
					"%v: record seq %d after applied prefix %d", repl.ErrSeqGap, rec.ID.Seq, s.walSeq)}
			}
			s.walAppend(rec)
			if err := s.replayRecord(rec); err != nil {
				return Response{OK: false, Error: err.Error()}
			}
			r.met.RecordsApplied.Inc()
		}
		// Durable before acked: the commit below is what the ack the
		// session sends back will attest to.
		s.walCommit()
		return Response{OK: true, repl: &replReply{appliedSeq: s.walSeq}}

	case replCkpt:
		if r == nil || r.role != roleFollower {
			return Response{OK: false, Error: fmt.Sprintf("ctl: repl checkpoint on a %s", replRoleOf(r))}
		}
		// Stream ordering guarantees the announce arrives exactly at the
		// rotation point; anything else means the session lost frames.
		if rc.ckptSeq != s.walSeq {
			return Response{OK: false, Error: fmt.Sprintf(
				"%v: checkpoint announced at seq %d, follower applied %d", repl.ErrSeqGap, rc.ckptSeq, s.walSeq)}
		}
		if err := s.doCheckpoint(); err != nil {
			return Response{OK: false, Error: fmt.Sprintf("ctl: follower checkpoint: %v", err)}
		}
		return Response{OK: true, repl: &replReply{appliedSeq: s.walSeq}}

	default:
		return Response{OK: false, Error: fmt.Sprintf("ctl: unknown repl command %d", rc.kind)}
	}
}

func replRoleOf(r *replState) string {
	if r == nil {
		return "server without replication"
	}
	return r.role
}

// replFolding reports whether the engine may only advance through the
// replicated fold (state loop only). True exactly while following: the
// leader stamps each record with its round count at admission, and the
// follower reconstructs state by stepping to that stamp, so rounds run
// anywhere else overshoot the next record's stamp — the leader admits
// mid-cascade under pipelined load — and fail the fold's clock
// assertion. Promotion drains the backlog and flips the role, which
// re-enables free-running rounds.
func (s *Server) replFolding() bool {
	return s.repl != nil && s.repl.role == roleFollower
}

// notLeaderResponse is the typed rejection for writes landing on a
// follower or deposed leader.
func (s *Server) notLeaderResponse() Response {
	r := s.repl
	info := &NotLeaderInfo{Role: r.role, Term: r.term}
	if r.role == roleFollower {
		info.LeaderAddr = r.leaderAddr
	}
	err := &NotLeaderError{Role: info.Role, Term: info.Term, LeaderAddr: info.LeaderAddr}
	return Response{OK: false, Error: err.Error(), NotLeader: info}
}

// replInfo renders the OpReplStatus payload (state loop only).
func (s *Server) replInfo() *ReplInfo {
	r := s.repl
	info := &ReplInfo{Role: r.role, Term: r.term, LastSeq: s.walSeq, FailoverMs: r.failoverMs.Load()}
	switch r.role {
	case roleFollower:
		info.LeaderAddr = r.leaderAddr
		info.LagRecords = max(0, r.leaderSeq.Load()-s.walSeq)
		r.mu.Lock()
		info.LastError = r.lastErr
		r.mu.Unlock()
	case roleLeader:
		r.mu.Lock()
		for f := range r.followers {
			acked := f.acked.Load()
			info.Followers = append(info.Followers, FollowerInfo{
				Addr:       f.addr,
				AckedSeq:   acked,
				LagRecords: max(0, s.walSeq-acked),
				Synced:     f.synced.Load(),
			})
		}
		r.mu.Unlock()
		sort.Slice(info.Followers, func(i, j int) bool {
			return info.Followers[i].Addr < info.Followers[j].Addr
		})
	}
	return info
}

// handlePromote flips a follower to leader (state loop only): stop the
// stream, drain the fold's cascade to quiescence, persist the bumped
// term — the fence that deposes the old leader — and only then serve
// writes. The drain is bounded by replication lag, not log length: the
// follower folded continuously, so only the not-yet-executed tail of
// admitted work remains.
func (s *Server) handlePromote() Response {
	r := s.repl
	if r == nil || s.wal == nil {
		return Response{OK: false, Error: "ctl: replication requires a WAL"}
	}
	switch r.role {
	case roleLeader:
		// Idempotent: an operator promote racing the watchdog's is fine.
		return Response{OK: true, Repl: s.replInfo()}
	case roleDeposed:
		return Response{OK: false,
			Error:     "ctl: deposed leader cannot be promoted; restart it as a follower",
			NotLeader: &NotLeaderInfo{Role: r.role, Term: r.term}}
	}
	started := time.Now()
	r.stopFollowing()
	if err := s.stepUntil(quiescence); err != nil {
		return Response{OK: false, Error: fmt.Sprintf("ctl: promote drain: %v", err)}
	}
	newTerm := r.term + 1
	if lt := r.leaderTerm.Load(); lt >= newTerm {
		newTerm = lt + 1
	}
	if err := repl.SaveTerm(s.walLog.Dir(), newTerm); err != nil {
		return Response{OK: false, Error: fmt.Sprintf("ctl: promote: %v", err)}
	}
	r.term = newTerm
	r.termA.Store(newTerm)
	r.met.Term.Set(int64(newTerm))
	r.setRole(roleLeader)
	s.refreshGauges()
	elapsed := time.Since(started)
	r.failoverMs.Store(elapsed.Milliseconds())
	r.met.Promotions.Inc()
	r.met.Failover.Observe(elapsed.Nanoseconds())
	r.met.FailoverMs.Set(elapsed.Milliseconds())
	r.met.LagRecords.Set(0)
	return Response{OK: true, Repl: s.replInfo()}
}

// serveRepl serves one leader-side replication session (connection
// handler; the first byte already identified the stream).
func (s *Server) serveRepl(conn net.Conn, br *bufio.Reader) {
	_ = conn.SetReadDeadline(time.Now().Add(replHandshakeTimeout))
	m, _, err := repl.ReadMessage(br, nil)
	if err != nil || m.Kind != repl.KindHello {
		return
	}
	_ = conn.SetReadDeadline(time.Time{})

	f := &replFollower{
		addr: conn.RemoteAddr().String(),
		conn: conn,
		out:  make(chan []byte, replOutboxDepth),
		done: make(chan struct{}),
	}
	rep, err := s.dispatchRepl(&replCmd{kind: replAttach, hello: m.Hello, follower: f})
	if err != nil {
		return
	}
	accepted := rep.verdict.Code == ""
	if accepted {
		defer s.repl.detach(f)
	}
	w := &repl.Welcome{
		Code: rep.verdict.Code, Detail: rep.verdict.Detail,
		Term: rep.term, LastSeq: rep.walSeq, CheckpointSeq: rep.ckptSeq,
		Snapshot: rep.ckpt != nil,
	}
	out, err := repl.AppendWelcome(nil, w)
	if err != nil {
		return
	}
	_ = conn.SetWriteDeadline(time.Now().Add(replWriteTimeout))
	if _, err := conn.Write(out); err != nil {
		return
	}
	if !accepted {
		return
	}

	afterSeq := m.Hello.AfterSeq
	if rep.ckpt != nil {
		out, err = repl.AppendCheckpoint(out[:0], rep.ckpt, true)
		if err != nil {
			return
		}
		_ = conn.SetWriteDeadline(time.Now().Add(replWriteTimeout))
		if _, err := conn.Write(out); err != nil {
			return
		}
		afterSeq = rep.ckpt.ID.Seq
	}

	// The ack reader owns the connection's read side from here. It
	// flips the follower to synced once it acks through the attach
	// point, joining the group-commit gate.
	r := s.repl
	go func() {
		var scratch []byte
		for {
			am, sc, err := repl.ReadMessage(br, scratch)
			scratch = sc
			if err != nil || am.Kind != repl.KindAck {
				f.fail()
				r.wake()
				return
			}
			f.acked.Store(am.Ack.Seq)
			r.met.AcksReceived.Inc()
			if !f.synced.Load() && am.Ack.Seq >= f.syncTarget {
				f.synced.Store(true)
				r.met.SyncedFollowers.Set(r.nSynced.Add(1))
			}
			r.wake()
		}
	}()

	// Catch-up: stream (afterSeq, attach point] straight off the
	// segment files. The snapshot taken at attach can go stale if the
	// leader checkpoints past it mid-stream (segments purged under us);
	// the session just drops and the follower reconnects from wherever
	// its fold got to.
	bw := bufio.NewWriterSize(conn, 64<<10)
	var batch, frameBuf []byte
	sent := int64(0)
	sendBatch := func() error {
		if len(batch) == 0 {
			return nil
		}
		var err error
		frameBuf, err = repl.AppendRecords(frameBuf[:0], batch)
		if err != nil {
			return err
		}
		_ = conn.SetWriteDeadline(time.Now().Add(replWriteTimeout))
		if _, err := bw.Write(frameBuf); err != nil {
			return err
		}
		batch = batch[:0]
		return nil
	}
	err = wal.EmitFrames(rep.segs, afterSeq, rep.walSeq, func(frame []byte, _ *wal.Record) error {
		batch = append(batch, frame...)
		sent++
		if len(batch) >= replBatchBytes {
			return sendBatch()
		}
		return nil
	})
	if err != nil {
		return
	}
	if err := sendBatch(); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	r.met.RecordsSent.Add(sent)

	// Live stream: drain the outbox, coalescing bursts into one flush.
	for {
		select {
		case frame := <-f.out:
			_ = conn.SetWriteDeadline(time.Now().Add(replWriteTimeout))
			if _, err := bw.Write(frame); err != nil {
				return
			}
			for more := true; more; {
				select {
				case fr := <-f.out:
					if _, err := bw.Write(fr); err != nil {
						return
					}
				default:
					more = false
				}
			}
			if err := bw.Flush(); err != nil {
				return
			}
		case <-f.done:
			return
		case <-s.closing:
			return
		}
	}
}

// FollowerConfig wires a server as a warm follower of a leader's WAL.
type FollowerConfig struct {
	// Log is the follower's own opened WAL (wal.Open); replicated
	// frames are appended here so the follower can itself crash,
	// recover and resume.
	Log *wal.Log
	// Meta must describe the same deterministic world as the leader's;
	// the leader refuses mismatches at handshake.
	Meta *wal.Meta
	// LeaderAddr is the leader's ctl address.
	LeaderAddr string
	// CheckpointEvery is used after promotion (0 = default). While
	// following, checkpoints happen only on the leader's announcement.
	CheckpointEvery int
	// PromoteAfter auto-promotes once the leader has been unreachable
	// this long (0 = manual promotion only). Must comfortably exceed
	// the leader's heartbeat cadence.
	PromoteAfter time.Duration
	// DialTimeout bounds connection attempts (0 = DefaultDialTimeout).
	DialTimeout time.Duration
	// ReconnectEvery is the redial backoff (0 = DefaultReconnectEvery).
	ReconnectEvery time.Duration
}

// FollowerSession is an established replication stream, handed from
// FollowerBootstrap to NewFollower.
type FollowerSession struct {
	conn    net.Conn
	br      *bufio.Reader
	welcome *repl.Welcome
	term    uint64
}

// FollowerBootstrap prepares cfg.Log for following and opens the
// replication session: truncate any torn tail back to the last complete
// frame (a follower that crashed mid-stream must not let a later
// rotation freeze the tear into a non-final segment), load the
// persisted term, handshake, and install the leader's bootstrap
// checkpoint when one is needed.
//
// It runs before the world is built so the caller can decide — exactly
// as with plain recovery — whether cfg.Log.Checkpoint() obviates
// background pre-fill. Pass the session to NewFollower.
func FollowerBootstrap(cfg FollowerConfig) (*FollowerSession, error) {
	if cfg.Log == nil {
		return nil, fmt.Errorf("ctl: FollowerConfig.Log is nil")
	}
	if cfg.Meta == nil {
		return nil, fmt.Errorf("ctl: FollowerConfig.Meta is nil")
	}
	if _, err := cfg.Log.TruncateTail(); err != nil {
		return nil, err
	}
	term, err := repl.LoadTerm(cfg.Log.Dir())
	if err != nil {
		return nil, err
	}
	sess, err := dialFollowerSession(&cfg, term, cfg.Log.LastSeq(), cfg.Log.Empty())
	if err != nil {
		return nil, err
	}
	if err := repl.CheckWelcome(term, sess.welcome); err != nil {
		_ = sess.conn.Close()
		return nil, err
	}
	if sess.welcome.Snapshot {
		_ = sess.conn.SetReadDeadline(time.Now().Add(replHandshakeTimeout))
		m, _, err := repl.ReadMessage(sess.br, nil)
		if err != nil {
			_ = sess.conn.Close()
			return nil, err
		}
		if m.Kind != repl.KindCheckpoint || !m.Bootstrap {
			_ = sess.conn.Close()
			return nil, fmt.Errorf("%w: expected bootstrap checkpoint, got frame kind %d", repl.ErrCorrupt, m.Kind)
		}
		if err := cfg.Log.InstallCheckpoint(m.Checkpoint); err != nil {
			_ = sess.conn.Close()
			return nil, err
		}
		_ = sess.conn.SetReadDeadline(time.Time{})
	}
	return sess, nil
}

// dialFollowerSession connects and exchanges Hello/Welcome. The caller
// validates the Welcome (CheckWelcome) so it can tell fatal rejections
// from retryable ones.
func dialFollowerSession(cfg *FollowerConfig, term uint64, afterSeq int64, bootstrap bool) (*FollowerSession, error) {
	dt := cfg.DialTimeout
	if dt <= 0 {
		dt = DefaultDialTimeout
	}
	conn, err := net.DialTimeout("tcp", cfg.LeaderAddr, dt)
	if err != nil {
		return nil, err
	}
	h := &repl.Hello{Term: term, AfterSeq: afterSeq, Bootstrap: bootstrap, Meta: *cfg.Meta}
	buf, err := repl.AppendHello(nil, h)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	_ = conn.SetWriteDeadline(time.Now().Add(replWriteTimeout))
	if _, err := conn.Write(buf); err != nil {
		_ = conn.Close()
		return nil, err
	}
	_ = conn.SetWriteDeadline(time.Time{})
	br := bufio.NewReaderSize(conn, 64<<10)
	_ = conn.SetReadDeadline(time.Now().Add(replHandshakeTimeout))
	m, _, err := repl.ReadMessage(br, nil)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	if m.Kind != repl.KindWelcome {
		_ = conn.Close()
		return nil, fmt.Errorf("%w: expected welcome, got frame kind %d", repl.ErrCorrupt, m.Kind)
	}
	_ = conn.SetReadDeadline(time.Time{})
	return &FollowerSession{conn: conn, br: br, welcome: m.Welcome, term: term}, nil
}

// NewFollower builds a read-only server that continuously folds the
// leader's WAL stream. It recovers the follower's own log first (the
// same build path New takes — a bootstrap checkpoint installed by
// FollowerBootstrap restores like any other), then applies frames from
// sess as they arrive. Writes are answered with a typed not-leader
// rejection until promotion.
func NewFollower(planner *core.Planner, scheduler sched.Scheduler, simCfg sim.Config, cfg FollowerConfig, sess *FollowerSession, opts ...ServerOption) (*Server, *RecoveryInfo, error) {
	if sess == nil {
		return nil, nil, fmt.Errorf("ctl: NewFollower needs the session from FollowerBootstrap")
	}
	c := Config{
		Planner: planner, Scheduler: scheduler, Sim: simCfg,
		WAL: &WALConfig{Log: cfg.Log, Meta: cfg.Meta, CheckpointEvery: cfg.CheckpointEvery, followerBoot: true},
	}
	for _, opt := range opts {
		opt(&c)
	}
	s, info, err := build(c)
	if err != nil {
		_ = sess.conn.Close()
		return nil, nil, err
	}
	r := s.repl
	r.setRole(roleFollower)
	r.fcfg = &cfg
	r.leaderAddr = cfg.LeaderAddr
	r.promoteAfter = cfg.PromoteAfter
	if cfg.DialTimeout > 0 {
		r.dialTimeout = cfg.DialTimeout
	}
	if cfg.ReconnectEvery > 0 {
		r.backoff = cfg.ReconnectEvery
	}
	r.leaderTerm.Store(sess.welcome.Term)
	r.leaderSeq.Store(sess.welcome.LastSeq)
	s.start()
	r.wg.Add(1)
	go s.runFollower(sess)
	return s, info, nil
}

// runFollower owns the follower's stream: fold sessions, reconnects,
// and the leader-loss watchdog that auto-promotes.
func (s *Server) runFollower(sess *FollowerSession) {
	r := s.repl
	defer r.wg.Done()
	for {
		err := s.followSession(sess)
		_ = sess.conn.Close()
		if err == errPromoted || s.isClosing() || r.stopped() {
			return
		}
		r.setLastErr(err)
		if isFatalFollow(err) {
			// Reconnecting would deterministically fail again (stale
			// leader, divergence, sequence gap): stop and surface the
			// error through repl status.
			return
		}
		// Reconnect, auto-promoting if the leader stays dark.
		downSince := time.Now()
		for {
			if s.isClosing() || r.stopped() {
				return
			}
			if r.promoteAfter > 0 && time.Since(downSince) >= r.promoteAfter {
				s.dispatch(Request{Op: OpReplPromote})
				return
			}
			select {
			case <-time.After(r.backoff):
			case <-s.closing:
				return
			case <-r.stopFollow:
				return
			}
			ns, err := dialFollowerSession(r.fcfg, r.termA.Load(), s.walMet.LastSeq.Value(), false)
			if err != nil {
				continue // leader still down; keep the watchdog ticking
			}
			if werr := repl.CheckWelcome(r.termA.Load(), ns.welcome); werr != nil {
				_ = ns.conn.Close()
				r.setLastErr(werr)
				if ns.welcome.Code == repl.CodeFull {
					// Our previous session may still be detaching on the
					// leader; that slot frees up, so retry.
					continue
				}
				return
			}
			sess = ns
			r.setLastErr(nil)
			break
		}
	}
}

// followSession folds one established stream until it errors, the
// server closes, or a read-deadline watchdog promotes this follower.
func (s *Server) followSession(sess *FollowerSession) error {
	r := s.repl
	r.setConn(sess.conn)
	defer r.setConn(nil)
	if t := sess.welcome.Term; t > r.leaderTerm.Load() {
		r.leaderTerm.Store(t)
	}
	r.leaderSeq.Store(sess.welcome.LastSeq)
	var scratch, ackBuf []byte
	for {
		if s.isClosing() || r.stopped() {
			return errPromoted
		}
		if r.promoteAfter > 0 {
			_ = sess.conn.SetReadDeadline(time.Now().Add(r.promoteAfter))
		}
		m, sc, err := repl.ReadMessage(sess.br, scratch)
		scratch = sc
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && r.promoteAfter > 0 && !r.stopped() && !s.isClosing() {
				// The leader went silent past the heartbeat cadence:
				// promote in place rather than reconnect.
				s.dispatch(Request{Op: OpReplPromote})
				return errPromoted
			}
			return err
		}
		switch m.Kind {
		case repl.KindRecords:
			recs, err := repl.DecodeRecords(m.Records)
			if err != nil {
				return err
			}
			if len(recs) == 0 {
				continue
			}
			rep, err := s.dispatchRepl(&replCmd{kind: replApply, recs: recs})
			if err != nil {
				if errors.Is(err, ErrServerClosed) {
					return err
				}
				return fmt.Errorf("%w: %v", errFoldFailed, err)
			}
			ackBuf, err = repl.AppendAck(ackBuf[:0], rep.appliedSeq)
			if err != nil {
				return err
			}
			_ = sess.conn.SetWriteDeadline(time.Now().Add(replWriteTimeout))
			if _, err := sess.conn.Write(ackBuf); err != nil {
				return err
			}
			if rep.appliedSeq > r.leaderSeq.Load() {
				r.leaderSeq.Store(rep.appliedSeq)
			}
			lag := max(0, r.leaderSeq.Load()-rep.appliedSeq)
			r.met.LagRecords.Set(lag)
			r.met.Lag.Observe(lag)

		case repl.KindCheckpoint:
			if m.Bootstrap {
				return fmt.Errorf("%w: bootstrap checkpoint mid-stream", repl.ErrCorrupt)
			}
			if _, err := s.dispatchRepl(&replCmd{kind: replCkpt, ckptSeq: m.Checkpoint.ID.Seq}); err != nil {
				if errors.Is(err, ErrServerClosed) {
					return err
				}
				return fmt.Errorf("%w: %v", errFoldFailed, err)
			}

		case repl.KindHeartbeat:
			hb := m.Heartbeat
			if hb.Term < r.termA.Load() {
				return fmt.Errorf("%w: heartbeat term %d below own term %d",
					repl.ErrStaleLeader, hb.Term, r.termA.Load())
			}
			if hb.Term > r.leaderTerm.Load() {
				r.leaderTerm.Store(hb.Term)
			}
			r.leaderSeq.Store(hb.LastSeq)
			lag := max(0, hb.LastSeq-s.walMet.LastSeq.Value())
			r.met.LagRecords.Set(lag)
			r.met.Lag.Observe(lag)

		default:
			return fmt.Errorf("%w: unexpected frame kind %d from leader", repl.ErrCorrupt, m.Kind)
		}
	}
}

// isFatalFollow reports whether a session error would deterministically
// recur on reconnect.
func isFatalFollow(err error) bool {
	return errors.Is(err, errFoldFailed) ||
		errors.Is(err, repl.ErrCorrupt) ||
		errors.Is(err, repl.ErrSeqGap) ||
		errors.Is(err, repl.ErrStaleLeader) ||
		errors.Is(err, repl.ErrRejected)
}

func (s *Server) isClosing() bool {
	select {
	case <-s.closing:
		return true
	default:
		return false
	}
}
