package ctl

// WAL replication: a leader streams committed log frames to warm
// followers; a follower folds them through the crash-recovery replay
// path and can be promoted when the leader is lost.
//
// The wire protocol and term discipline live in internal/repl; the
// journal (journal.go) decides what is replicated and when. This file
// holds what runs beside the state loop:
//
//   - Leader: the hub — the registered sessions and their outboxes. The
//     journal stages each appended record's frame, publishes the staged
//     frames at commit and then gates the reply release on synced
//     followers' acks (group commit) — an acked event is durable on the
//     follower too, so promotion loses nothing a client was told
//     succeeded. A follower that overflows its outbox or misses the ack
//     deadline is dropped and the leader continues solo (availability
//     over replication; the drop is counted and visible in Stats).
//   - Follower: a session goroutine reads frames off the leader
//     connection and hands them to the state loop (Server.onLoop), which
//     appends and commits them to the follower's own WAL; the session
//     acks at once, so an ack marks durability, not the fold. The loop
//     folds the acked records behind the ack, one round at a time
//     between commands, through replayRecord — the exact path recovery
//     takes, so a promoted follower is the state a never-crashed server
//     holding the same prefix would be in. The unfolded backlog is
//     capped (foldBacklogCap); a promotion and a checkpoint fold it
//     first. Checkpoints are taken only on the leader's announcement,
//     keeping both logs rotating at the same sequences.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
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
var roleCode = map[string]int64{roleLeader: 0, roleFollower: 1, roleDeposed: 2}

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

	// replStreamMagic is the first byte that routes a connection to
	// serveRepl.
	replStreamMagic = repl.StreamMagic
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
	// heartbeatEvery shortens the liveness beacon cadence for in-package
	// tests; 0 — all any caller outside the package can say — is
	// DefaultHeartbeatEvery.
	heartbeatEvery time.Duration
}

// errFoldFailed marks a follower-side apply error (sequence gap, replay
// divergence, checkpoint misalignment). It is terminal: reconnecting
// would deterministically fail again.
var errFoldFailed = errors.New("ctl: replication fold failed")

// errPromoted ends a follower session because this server was promoted.
var errPromoted = errors.New("ctl: promoted")

// replHub is the leader's fan-out: the registered sessions behind one
// mutex, and the publish pipeline in front of them. How many sessions
// are registered, and how many of those synced, is kept once — in the
// met.Followers / met.SyncedFollowers gauges, which change only under mu.
type replHub struct {
	met          *obs.ReplMetrics
	maxFollowers int
	hbEvery      time.Duration

	mu        sync.Mutex
	acked     *sync.Cond // signaled on acks, drops and detaches
	followers map[*replFollower]struct{}

	// Publish pipeline, state-loop confined: stage copies raw frame
	// bytes here, publish wraps them in KindRecords frames and fans them
	// out.
	pending     []byte
	chunks      [][]byte
	pendingRecs int64
}

func newReplHub(met *obs.ReplMetrics, rc ReplicationConfig) *replHub {
	h := &replHub{
		met:          met,
		maxFollowers: rc.MaxFollowers,
		hbEvery:      rc.heartbeatEvery,
		followers:    make(map[*replFollower]struct{}),
	}
	if h.maxFollowers <= 0 {
		h.maxFollowers = DefaultMaxFollowers
	}
	if h.hbEvery <= 0 {
		h.hbEvery = DefaultHeartbeatEvery
	}
	h.acked = sync.NewCond(&h.mu)
	return h
}

// wake broadcasts the ack condition. Taking the mutex first is what
// prevents a lost wakeup between gate's predicate check and its Wait.
func (h *replHub) wake() {
	h.mu.Lock()
	h.acked.Broadcast()
	h.mu.Unlock()
}

// replFollower is one registered replication session on the leader.
type replFollower struct {
	addr string
	conn net.Conn
	// out carries encoded stream frames from the state loop (and the
	// heartbeater) to the session's writer goroutine.
	out chan []byte
	// done is closed when the hub drops the session.
	done chan struct{}

	// Guarded by the hub's mu. syncTarget is the leader's sequence at
	// registration: acking through it makes the follower synced, joining
	// the group-commit gate.
	acked      int64
	syncTarget int64
	synced     bool
}

func newReplFollower(conn net.Conn) *replFollower {
	return &replFollower{
		addr: conn.RemoteAddr().String(),
		conn: conn,
		out:  make(chan []byte, replOutboxDepth),
		done: make(chan struct{}),
	}
}

// register admits a session that holds the log through afterSeq while
// the leader stands at seq (state loop, from journal.attach).
func (h *replHub) register(f *replFollower, afterSeq, seq int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	f.syncTarget = seq
	h.followers[f] = struct{}{}
	h.met.Followers.Add(1)
	if afterSeq >= seq {
		// Already caught up at attach (idle leader, exact resume): acks
		// only flow after records do, so flip synced now or a quiet
		// leader would never admit the follower to the gate.
		f.acked = afterSeq
		f.synced = true
		h.met.SyncedFollowers.Add(1)
	}
}

// detach unregisters a session and shuts it (any goroutine): its
// connection handler returning, its ack reader failing.
func (h *replHub) detach(f *replFollower) {
	h.mu.Lock()
	h.drop(f)
	h.mu.Unlock()
}

// drop is detach for a caller that holds mu. A session is registered or
// it is gone — connection closed, writer told — so dropping one twice
// does nothing.
func (h *replHub) drop(f *replFollower) {
	if _, ok := h.followers[f]; !ok {
		return
	}
	delete(h.followers, f)
	h.met.Followers.Add(-1)
	if f.synced {
		h.met.SyncedFollowers.Add(-1)
	}
	h.acked.Broadcast()
	_ = f.conn.Close()
	close(f.done)
}

// ack records a follower's durability mark (the session's ack reader).
// Acking through the attach point makes the follower synced. An ack read
// after the session was detached — it can sit in the reader's buffer
// across an outbox overflow or a gate timeout — counts for nothing:
// nobody would be left to take it back.
func (h *replHub) ack(f *replFollower, seq int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.followers[f]; !ok {
		return
	}
	f.acked = seq
	h.met.AcksReceived.Inc()
	if !f.synced && seq >= f.syncTarget {
		f.synced = true
		h.met.SyncedFollowers.Add(1)
	}
	h.acked.Broadcast()
}

// stage buffers one just-appended record's frame for publication at the
// next commit (state loop, from journal.append). No-op without
// registered followers — they will read the frames from the segment
// files at attach instead.
func (h *replHub) stage(frame []byte) {
	if h.met.Followers.Value() == 0 {
		return
	}
	h.pending = append(h.pending, frame...)
	h.pendingRecs++
	if len(h.pending) >= replBatchBytes {
		h.chunks = append(h.chunks, h.pending)
		h.pending = nil
	}
}

// publish fans the staged frames out to every follower outbox (state
// loop, from journal.commit after the records became durable — a
// follower must never hold records the leader could still lose).
func (h *replHub) publish() error {
	if h.pendingRecs == 0 {
		return nil
	}
	for _, frames := range append(h.chunks, h.pending) {
		if len(frames) == 0 {
			continue
		}
		buf, err := repl.AppendRecords(nil, frames)
		if err != nil {
			return err
		}
		h.fanout(buf)
	}
	h.met.RecordsSent.Add(h.pendingRecs)
	h.chunks = nil
	h.pending = h.pending[:0]
	h.pendingRecs = 0
	return nil
}

// fanout offers one encoded stream frame to every follower and returns
// how many took it; an outbox overflow means the follower cannot keep up
// even with 8k frames of slack, so it is dropped rather than blocking
// the caller.
func (h *replHub) fanout(frame []byte) (sent int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for f := range h.followers {
		select {
		case f.out <- frame:
			sent++
		default:
			h.drop(f)
			h.met.FollowerDrops.Inc()
		}
	}
	h.acked.Broadcast()
	return sent
}

// announce tells followers the leader checkpointed at id (state loop,
// from journal.checkpoint). The staged buffer is always empty here —
// every path into a checkpoint runs after a flush.
func (h *replHub) announce(id wal.ID, rounds int64) error {
	if h.met.Followers.Value() == 0 {
		return nil
	}
	ck := &wal.Checkpoint{Format: wal.CheckpointFormat, ID: id, Rounds: rounds}
	buf, err := repl.AppendCheckpoint(nil, ck, false)
	if err != nil {
		return err
	}
	h.fanout(buf)
	return nil
}

// gate blocks the state loop until every synced follower has acked
// through seq, or the ack timeout drops the laggards (state loop, from
// journal.commit after publish). This is the group-commit fence: replies
// held behind it are released only once the acked events are durable on
// every synced follower.
func (h *replHub) gate(seq int64) {
	if h.met.SyncedFollowers.Value() == 0 {
		return
	}
	deadline := time.Now().Add(DefaultAckTimeout)
	// The timer broadcasts under the mutex: it cannot fire between the
	// predicate check and Wait, so the wakeup is never lost.
	timer := time.AfterFunc(DefaultAckTimeout, h.wake)
	defer timer.Stop()
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		// Availability over replication: past the deadline the laggards
		// are dropped and the leader continues solo. The drop is counted
		// and visible in Stats.
		late := !time.Now().Before(deadline)
		waiting := false
		for f := range h.followers {
			if !f.synced || f.acked >= seq {
				continue
			}
			waiting = true
			if late {
				h.drop(f)
				h.met.FollowerDrops.Inc()
			}
		}
		if !waiting || late {
			return
		}
		h.acked.Wait()
	}
}

// heartbeat beacons (term, last) to every session and takes the lag
// readings (the heartbeater goroutine).
func (h *replHub) heartbeat(term uint64, last int64) {
	if h.met.Followers.Value() == 0 {
		return
	}
	frame, err := repl.AppendHeartbeat(nil, term, last)
	if err != nil {
		return
	}
	h.met.HeartbeatsSent.Add(int64(h.fanout(frame)))
	var worst int64
	h.mu.Lock()
	for f := range h.followers {
		lag := max(0, last-f.acked)
		h.met.Lag.Observe(lag)
		worst = max(worst, lag)
	}
	h.mu.Unlock()
	h.met.LagRecords.Set(worst)
}

// sessions lists the registered sessions for OpReplStatus, the leader
// standing at seq.
func (h *replHub) sessions(seq int64) []FollowerInfo {
	h.mu.Lock()
	var out []FollowerInfo
	for f := range h.followers {
		out = append(out, FollowerInfo{
			Addr:       f.addr,
			AckedSeq:   f.acked,
			LagRecords: max(0, seq-f.acked),
			Synced:     f.synced,
		})
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
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

	f := newReplFollower(conn)
	var (
		w    *repl.Welcome
		ckpt *wal.Checkpoint
		segs []wal.SegmentInfo
	)
	attach := func() error {
		w, ckpt, segs = s.journal.attach(m.Hello, f)
		return nil
	}
	if s.onLoop(attach) != nil {
		return
	}
	accepted := w.Code == ""
	if accepted {
		defer s.journal.hub.detach(f)
	}
	// The Welcome, then the bootstrap snapshot when one was promised.
	afterSeq := m.Hello.AfterSeq
	out, err := repl.AppendWelcome(nil, w)
	if err == nil && ckpt != nil {
		out, err = repl.AppendCheckpoint(out, ckpt, true)
		afterSeq = ckpt.ID.Seq
	}
	if err != nil {
		return
	}
	_ = conn.SetWriteDeadline(time.Now().Add(replWriteTimeout))
	if _, err := conn.Write(out); err != nil || !accepted {
		return
	}

	// The ack reader owns the connection's read side from here.
	hub := s.journal.hub
	go func() {
		var scratch []byte
		for {
			am, sc, err := repl.ReadMessage(br, scratch)
			scratch = sc
			if err != nil || am.Kind != repl.KindAck {
				hub.detach(f)
				return
			}
			hub.ack(f, am.Ack.Seq)
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
	err = wal.EmitFrames(segs, afterSeq, w.LastSeq, func(frame []byte, _ *wal.Record) error {
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
	hub.met.RecordsSent.Add(sent)

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
	// reconnectEvery shortens the redial backoff for in-package tests;
	// 0 — all any caller outside the package can say — is
	// DefaultReconnectEvery.
	reconnectEvery time.Duration
}

// FollowerSession is an established replication stream, handed from
// FollowerBootstrap to NewFollower.
type FollowerSession struct {
	conn    net.Conn
	br      *bufio.Reader
	welcome *repl.Welcome
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
	conn, err := net.DialTimeout("tcp", cfg.LeaderAddr, DefaultDialTimeout)
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
	return &FollowerSession{conn: conn, br: br, welcome: m.Welcome}, nil
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
	j := s.journal
	j.setRole(roleFollower)
	j.follow = cfg
	if j.follow.reconnectEvery <= 0 {
		j.follow.reconnectEvery = DefaultReconnectEvery
	}
	j.leaderTerm.Store(sess.welcome.Term)
	j.leaderSeq.Store(sess.welcome.LastSeq)
	s.start()
	j.wg.Add(1)
	go s.runFollower(sess)
	return s, info, nil
}

// runFollower owns the follower's stream: fold sessions, reconnects,
// and the leader-loss watchdog that auto-promotes.
func (s *Server) runFollower(sess *FollowerSession) {
	j := s.journal
	defer j.wg.Done()
	for {
		err := s.followSession(sess)
		_ = sess.conn.Close()
		if err == errPromoted || j.stopped() {
			return
		}
		j.setLastErr(err.Error())
		if isFatalFollow(err) {
			// Reconnecting would deterministically fail again (stale
			// leader, divergence, sequence gap): stop and surface the
			// error through repl status.
			return
		}
		// Reconnect, auto-promoting if the leader stays dark.
		downSince := time.Now()
		for {
			if j.stopped() {
				return
			}
			if pa := j.follow.PromoteAfter; pa > 0 && time.Since(downSince) >= pa {
				s.dispatch(Request{Op: OpReplPromote})
				return
			}
			select {
			case <-time.After(j.follow.reconnectEvery):
			case <-s.closing:
				return
			case <-j.stopFollow:
				return
			}
			// The term is this follower's own until it is promoted, which
			// stops this loop first.
			term := uint64(j.rmet.Term.Value())
			ns, err := dialFollowerSession(&j.follow, term, j.met.LastSeq.Value(), false)
			if err != nil {
				continue // leader still down; keep the watchdog ticking
			}
			if werr := repl.CheckWelcome(term, ns.welcome); werr != nil {
				_ = ns.conn.Close()
				j.setLastErr(werr.Error())
				if ns.welcome.Code == repl.CodeFull {
					// Our previous session may still be detaching on the
					// leader; that slot frees up, so retry.
					continue
				}
				return
			}
			sess = ns
			j.setLastErr("")
			break
		}
	}
}

// followSession folds one established stream until it errors, the
// server closes, or a read-deadline watchdog promotes this follower.
func (s *Server) followSession(sess *FollowerSession) error {
	j := s.journal
	promoteAfter := j.follow.PromoteAfter
	j.setConn(sess.conn)
	defer j.setConn(nil)
	if t := sess.welcome.Term; t > j.leaderTerm.Load() {
		j.leaderTerm.Store(t)
	}
	j.leaderSeq.Store(sess.welcome.LastSeq)
	var scratch, ackBuf []byte
	for {
		if j.stopped() {
			return errPromoted
		}
		if promoteAfter > 0 {
			_ = sess.conn.SetReadDeadline(time.Now().Add(promoteAfter))
		}
		m, sc, err := repl.ReadMessage(sess.br, scratch)
		scratch = sc
		if err != nil {
			if ferr := j.foldFailure(); ferr != nil {
				// The loop's fold failed and closed the connection.
				return ferr
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && promoteAfter > 0 && !j.stopped() {
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
			var appended int64
			err = s.onLoop(func() (err error) {
				appended, err = j.appendReplicated(recs)
				return err
			})
			if err != nil {
				return fmt.Errorf("%w: %v", errFoldFailed, err)
			}
			ackBuf, err = repl.AppendAck(ackBuf[:0], appended)
			if err != nil {
				return err
			}
			_ = sess.conn.SetWriteDeadline(time.Now().Add(replWriteTimeout))
			if _, err := sess.conn.Write(ackBuf); err != nil {
				return err
			}
			if appended > j.leaderSeq.Load() {
				j.leaderSeq.Store(appended)
			}
			j.observeLag(j.leaderSeq.Load())
			// At the cap, read nothing more until the fold catches up:
			// TCP back-pressure and the leader's outbox take it from here.
			if err := j.awaitFold(); err != nil {
				return err
			}

		case repl.KindCheckpoint:
			if m.Bootstrap {
				return fmt.Errorf("%w: bootstrap checkpoint mid-stream", repl.ErrCorrupt)
			}
			err := s.onLoop(func() error {
				if err := j.announced(m.Checkpoint.ID.Seq); err != nil {
					return err
				}
				return s.checkpoint()
			})
			if err != nil {
				return fmt.Errorf("%w: %v", errFoldFailed, err)
			}

		case repl.KindHeartbeat:
			hb := m.Heartbeat
			if own := uint64(j.rmet.Term.Value()); hb.Term < own {
				return fmt.Errorf("%w: heartbeat term %d below own term %d",
					repl.ErrStaleLeader, hb.Term, own)
			}
			if hb.Term > j.leaderTerm.Load() {
				j.leaderTerm.Store(hb.Term)
			}
			j.leaderSeq.Store(hb.LastSeq)
			j.observeLag(hb.LastSeq)

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
