package ctl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"netupdate/internal/repl"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
	"netupdate/internal/wal"
)

// The replication chaos suite: a leader streams its WAL to a warm
// follower over the wire, the tests kill the leader at controlled (and,
// in the property test, at every possible) points, promote the
// follower, and require the promoted server to be indistinguishable
// from one that folded the same acked prefix without any of the drama.

// startReplLeader is startWALServer plus the pieces replication tests
// need: the listen address (followers dial it) and a fast heartbeat so
// lag/liveness machinery runs within test timescales.
func startReplLeader(t *testing.T, dir string, ckptEvery int, wopts ...wal.Option) (*Server, *Client, string, *topology.FatTree) {
	t.Helper()
	return startReplLeaderWindow(t, dir, ckptEvery, 0, wopts...)
}

// startReplLeaderWindow is startReplLeader with the done window shrunk
// to window completions (0 keeps doneWindow).
func startReplLeaderWindow(t *testing.T, dir string, ckptEvery, window int, wopts ...wal.Option) (*Server, *Client, string, *topology.FatTree) {
	t.Helper()
	log, err := wal.Open(dir, wopts...)
	if err != nil {
		t.Fatalf("wal.Open(%s): %v", dir, err)
	}
	planner, scheduler, ft := buildWALWorld(t, log.Checkpoint() == nil)
	srv, _, err := New(Config{
		Planner: planner, Scheduler: scheduler, Sim: sim.Config{InstallTime: time.Millisecond},
		WAL:         &WALConfig{Log: log, CheckpointEvery: ckptEvery},
		Replication: ReplicationConfig{heartbeatEvery: 50 * time.Millisecond},
		doneWindow:  window,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	client, addr := serveAndDial(t, srv)
	return srv, client, addr, ft
}

// startReplFollower boots a warm follower of the leader at leaderAddr,
// journaling into its own dir. promoteAfter 0 means manual promotion
// only.
func startReplFollower(t *testing.T, dir, leaderAddr string, meta wal.Meta, ckptEvery int, promoteAfter time.Duration) (*Server, *Client) {
	t.Helper()
	return startReplFollowerWindow(t, dir, leaderAddr, meta, ckptEvery, 0, promoteAfter)
}

// startReplFollowerWindow is startReplFollower with the done window
// shrunk to window completions (0 keeps doneWindow).
func startReplFollowerWindow(t *testing.T, dir, leaderAddr string, meta wal.Meta, ckptEvery, window int, promoteAfter time.Duration) (*Server, *Client) {
	t.Helper()
	log, err := wal.Open(dir)
	if err != nil {
		t.Fatalf("wal.Open(%s): %v", dir, err)
	}
	cfg := FollowerConfig{
		Log: log, Meta: &meta, LeaderAddr: leaderAddr,
		CheckpointEvery: ckptEvery, PromoteAfter: promoteAfter,
		reconnectEvery: 50 * time.Millisecond,
	}
	sess, err := FollowerBootstrap(cfg)
	if err != nil {
		t.Fatalf("FollowerBootstrap: %v", err)
	}
	planner, scheduler, _ := buildWALWorld(t, log.Checkpoint() == nil)
	srv, _, err := NewFollower(planner, scheduler, sim.Config{InstallTime: time.Millisecond}, cfg, sess,
		func(c *Config) {
			c.Replication.heartbeatEvery = 50 * time.Millisecond
			c.doneWindow = window
		})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	client, _ := serveAndDial(t, srv)
	return srv, client
}

// serveAndDial listens, serves and dials srv, wiring the same teardown
// as startWALServer.
func serveAndDial(t *testing.T, srv *Server) (*Client, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	client, err := DialBinary(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := client.Close(); err != nil && !strings.Contains(err.Error(), "use of closed") {
			t.Errorf("client close: %v", err)
		}
	})
	return client, l.Addr().String()
}

// waitFor polls until cond or the deadline; replication progress is
// asynchronous by design, so the tests wait on externally visible state
// rather than internals.
func waitFor(t *testing.T, timeout time.Duration, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitCaughtUp waits until the follower has appended through seq and
// folded everything it appended: an ack marks durability, and the fold
// follows behind it.
func waitCaughtUp(t *testing.T, client *Client, seq int64) {
	t.Helper()
	waitFor(t, 15*time.Second, fmt.Sprintf("follower to reach seq %d", seq), func() bool {
		st, err := client.Stats()
		if err != nil {
			t.Fatalf("Stats: %v", err)
		}
		return st.WALLastSeq >= seq && st.ReplLagRecords == 0
	})
}

// TestReplFollowerStreamsAndPromotes is the end-to-end happy path of
// the tentpole: live streaming with checkpoint announcements, lag and
// role visibility, typed write rejection on the follower, and a manual
// promotion after leader loss that converges byte-for-byte with the
// dead leader's acked state.
func TestReplFollowerStreamsAndPromotes(t *testing.T) {
	leaderDir := filepath.Join(t.TempDir(), "leader")
	followerDir := filepath.Join(t.TempDir(), "follower")

	// ckptEvery 6 forces several rotations mid-run, so the follower must
	// fold checkpoint announcements interleaved with records.
	leaderSrv, leaderClient, leaderAddr, ft := startReplLeader(t, leaderDir, 6)
	followerSrv, followerClient := startReplFollower(t, followerDir, leaderAddr, leaderSrv.journal.meta, 6, 0)

	for _, ch := range walWorkload(ft, 11, 4, 3) {
		playChunk(t, leaderClient, ch)
	}
	leaderStats, err := leaderClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if leaderStats.ReplRole != "leader" || leaderStats.ReplFollowers != 1 {
		t.Fatalf("leader stats: role=%q followers=%d", leaderStats.ReplRole, leaderStats.ReplFollowers)
	}
	waitCaughtUp(t, followerClient, leaderStats.WALLastSeq)

	// The group-commit gate means a quiesced leader has every record
	// acked; its own view of the follower must agree.
	waitFor(t, 10*time.Second, "leader to see the follower synced and acked", func() bool {
		info, err := leaderClient.ReplStatus()
		if err != nil {
			t.Fatalf("ReplStatus: %v", err)
		}
		return len(info.Followers) == 1 && info.Followers[0].Synced &&
			info.Followers[0].AckedSeq == leaderStats.WALLastSeq
	})

	followerStats, err := followerClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if followerStats.ReplRole != "follower" {
		t.Fatalf("follower role = %q", followerStats.ReplRole)
	}
	if followerStats.WALCheckpointSeq != leaderStats.WALCheckpointSeq {
		t.Fatalf("checkpoint misaligned: follower rotated at %d, leader at %d",
			followerStats.WALCheckpointSeq, leaderStats.WALCheckpointSeq)
	}
	if followerStats.ReplRecordsApplied != leaderStats.WALLastSeq {
		t.Fatalf("follower applied %d records, leader journaled %d",
			followerStats.ReplRecordsApplied, leaderStats.WALLastSeq)
	}
	info, err := followerClient.ReplStatus()
	if err != nil {
		t.Fatal(err)
	}
	if info.Role != "follower" || info.LeaderAddr != leaderAddr {
		t.Fatalf("follower repl status: %+v", info)
	}

	// Writes on the follower are refused with the typed rejection that
	// carries the leader's address.
	var nl *NotLeaderError
	if _, err := followerClient.Submit(EventSpec{Kind: "x", Flows: []FlowSpec{{Src: 0, Dst: 1, DemandBps: 1e6}}}); !errors.As(err, &nl) {
		t.Fatalf("submit on follower: got %v, want *NotLeaderError", err)
	}
	if !errors.Is(nl, ErrNotLeader) || nl.LeaderAddr != leaderAddr || nl.Role != "follower" {
		t.Fatalf("rejection detail: %+v", nl)
	}
	if _, err := followerClient.Fault(FaultSpec{Action: "install-timeout", Times: 1}); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("fault on follower: got %v, want ErrNotLeader", err)
	}

	// Kill the leader; promote; the promoted server must be the dead
	// leader's acked state, exactly.
	want := captureDigest(t, leaderSrv, leaderClient)
	if err := leaderSrv.Close(); err != nil {
		t.Fatal(err)
	}
	pInfo, err := followerClient.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if pInfo.Role != "leader" || pInfo.Term < 2 {
		t.Fatalf("after promote: %+v", pInfo)
	}
	got := captureDigest(t, followerSrv, followerClient)
	diffDigest(t, want, got)

	// Idempotent for an operator racing the watchdog.
	again, err := followerClient.Promote()
	if err != nil || again.Term != pInfo.Term {
		t.Fatalf("second promote: info=%+v err=%v", again, err)
	}

	// The promoted leader serves: run another chunk to completion.
	for _, ch := range walWorkload(ft, 12, 1, 3) {
		playChunk(t, followerClient, ch)
	}
	st, err := followerClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplRole != "leader" || st.ReplTerm != pInfo.Term {
		t.Fatalf("promoted stats: role=%q term=%d", st.ReplRole, st.ReplTerm)
	}
}

// TestReplAutoPromoteOnLeaderLoss exercises the watchdog: the leader
// vanishes (process gone, port closed) and the follower promotes itself
// once the leader has been dark past PromoteAfter, then serves writes.
func TestReplAutoPromoteOnLeaderLoss(t *testing.T) {
	leaderDir := filepath.Join(t.TempDir(), "leader")
	followerDir := filepath.Join(t.TempDir(), "follower")
	leaderSrv, leaderClient, leaderAddr, ft := startReplLeader(t, leaderDir, -1)
	_, followerClient := startReplFollower(t, followerDir, leaderAddr, leaderSrv.journal.meta, -1, 400*time.Millisecond)

	playChunk(t, leaderClient, walWorkload(ft, 21, 1, 3)[0])
	st, err := leaderClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, followerClient, st.WALLastSeq)

	if err := leaderSrv.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "watchdog promotion", func() bool {
		info, err := followerClient.ReplStatus()
		if err != nil {
			t.Fatalf("ReplStatus: %v", err)
		}
		return info.Role == "leader"
	})
	info, err := followerClient.ReplStatus()
	if err != nil {
		t.Fatal(err)
	}
	if info.Term < 2 {
		t.Fatalf("promoted term = %d, want >= 2", info.Term)
	}
	if info.LastSeq != st.WALLastSeq {
		t.Fatalf("acked-event loss: promoted at seq %d, leader acked %d", info.LastSeq, st.WALLastSeq)
	}
	playChunk(t, followerClient, walWorkload(ft, 22, 1, 2)[0])
}

// TestReplSplitBrain pins the fencing rules: once a follower has
// promoted, its term deposes the old leader at first contact, and a
// deposed leader never again accepts a write or a promotion.
func TestReplSplitBrain(t *testing.T) {
	leaderDir := filepath.Join(t.TempDir(), "leader")
	followerDir := filepath.Join(t.TempDir(), "follower")
	leaderSrv, leaderClient, leaderAddr, ft := startReplLeader(t, leaderDir, -1)
	_, followerClient := startReplFollower(t, followerDir, leaderAddr, leaderSrv.journal.meta, -1, 0)

	playChunk(t, leaderClient, walWorkload(ft, 31, 1, 3)[0])
	st, err := leaderClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, followerClient, st.WALLastSeq)

	// A network partition hides the leader from the operator, who
	// promotes the follower. The old leader is still running.
	pInfo, err := followerClient.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if pInfo.Term < 2 {
		t.Fatalf("promoted term = %d", pInfo.Term)
	}

	// The promoted term is persisted: a fresh LoadTerm sees the fence.
	term, err := repl.LoadTerm(followerDir)
	if err != nil || term != pInfo.Term {
		t.Fatalf("persisted term = %d (err %v), want %d", term, err, pInfo.Term)
	}

	// First contact from the new term deposes the old leader: the
	// handshake is refused with CodeDeposed and the old leader steps
	// down read-only.
	meta := leaderSrv.journal.meta
	sess, err := dialFollowerSession(&FollowerConfig{LeaderAddr: leaderAddr, Meta: &meta}, pInfo.Term, 0, true)
	if err != nil {
		t.Fatalf("deposing handshake: %v", err)
	}
	defer sess.conn.Close()
	if sess.welcome.Code != repl.CodeDeposed {
		t.Fatalf("welcome code = %q, want %q", sess.welcome.Code, repl.CodeDeposed)
	}
	if err := repl.CheckWelcome(pInfo.Term, sess.welcome); !errors.Is(err, repl.ErrRejected) {
		t.Fatalf("CheckWelcome: %v", err)
	}

	waitFor(t, 5*time.Second, "old leader to step down", func() bool {
		info, err := leaderClient.ReplStatus()
		if err != nil {
			t.Fatalf("ReplStatus: %v", err)
		}
		return info.Role == "deposed"
	})

	// Never dual-write: every write path on the deposed leader is a
	// typed rejection, including promotion back to leader.
	if _, err := leaderClient.Submit(EventSpec{Kind: "x", Flows: []FlowSpec{{Src: 0, Dst: 1, DemandBps: 1e6}}}); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("submit on deposed leader: got %v, want ErrNotLeader", err)
	}
	if _, err := leaderClient.Fault(FaultSpec{Action: "install-timeout", Times: 1}); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("fault on deposed leader: got %v, want ErrNotLeader", err)
	}
	if _, err := leaderClient.Promote(); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("promote on deposed leader: got %v, want ErrNotLeader", err)
	}

	// The new leader, meanwhile, serves.
	playChunk(t, followerClient, walWorkload(ft, 32, 1, 2)[0])
}

// TestReplFailoverFoldEquivalenceAtEveryPrefix is the failover property
// test, mirroring TestRecoveryFoldEquivalenceAtEveryPrefix: the leader
// can die after ANY replicated record, and for every such prefix p the
// promoted follower (which received exactly p records — the leader's
// whole log) must match a never-crashed server that folded the same p
// records locally. Prefixes where an archived checkpoint applies also
// exercise the bootstrap-snapshot path: the leader boots from the
// checkpoint image, so the follower installs the snapshot and streams
// only the suffix, yet must still converge to the full-fold digest.
func TestReplFailoverFoldEquivalenceAtEveryPrefix(t *testing.T) {
	baseDir := filepath.Join(t.TempDir(), "wal")
	_, clientA, _, ft := startWALServer(t, baseDir, 5, wal.WithKeepSegments())
	for _, ch := range walWorkload(ft, 4, 4, 3) {
		playChunk(t, clientA, ch)
	}
	histDir := filepath.Join(t.TempDir(), "hist")
	copyDir(t, baseDir, histDir)
	hist, err := wal.Open(histDir, wal.WithKeepSegments())
	if err != nil {
		t.Fatalf("open history: %v", err)
	}
	lastSeq := hist.LastSeq()
	if lastSeq < 10 {
		t.Fatalf("workload journaled only %d records, too few to be interesting", lastSeq)
	}
	archives := readArchivedCheckpoints(t, histDir)

	for p := int64(1); p <= lastSeq; p++ {
		p := p
		t.Run(fmt.Sprintf("prefix-%02d", p), func(t *testing.T) {
			t.Parallel()
			// Reference: fold the prefix locally, no replication drama.
			foldDir := filepath.Join(t.TempDir(), "fold")
			buildPrefixDir(t, hist, foldDir, p, nil)
			srvF, clientF, _, _ := startWALServer(t, foldDir, -1)
			want := captureDigest(t, srvF, clientF)

			// The leader serving the replication stream boots from the
			// newest checkpoint image covering p when one exists (so the
			// follower must bootstrap from the snapshot), else from the
			// plain prefix.
			var ckpt []byte
			for i := range archives {
				if archives[i].seq <= p {
					ckpt = archives[i].data
				}
			}
			leaderDir := filepath.Join(t.TempDir(), "leader")
			buildPrefixDir(t, hist, leaderDir, p, ckpt)
			leaderSrv, _, leaderAddr, _ := startReplLeader(t, leaderDir, -1)

			followerDir := filepath.Join(t.TempDir(), "follower")
			followerSrv, followerClient := startReplFollower(t, followerDir, leaderAddr, leaderSrv.journal.meta, -1, 0)
			waitCaughtUp(t, followerClient, p)

			// Kill the leader at this exact stream prefix, promote.
			if err := leaderSrv.Close(); err != nil {
				t.Fatal(err)
			}
			info, err := followerClient.Promote()
			if err != nil {
				t.Fatalf("Promote: %v", err)
			}
			if info.Role != "leader" || info.LastSeq != p {
				t.Fatalf("promoted at seq %d as %s, want leader at %d", info.LastSeq, info.Role, p)
			}
			got := captureDigest(t, followerSrv, followerClient)
			diffDigest(t, want, got)

			// The promoted trace must be a suffix of the reference trace
			// (equal when the follower folded from genesis; shorter when
			// it bootstrapped from a checkpoint snapshot).
			traceWant, err := clientF.Trace(0)
			if err != nil {
				t.Fatalf("Trace: %v", err)
			}
			traceGot, err := followerClient.Trace(0)
			if err != nil {
				t.Fatalf("Trace: %v", err)
			}
			if len(traceGot) > len(traceWant) {
				t.Fatalf("promoted trace has %d records, reference %d", len(traceGot), len(traceWant))
			}
			if ckpt == nil && len(traceGot) != len(traceWant) {
				t.Fatalf("genesis fold traces differ in length: %d vs %d", len(traceGot), len(traceWant))
			}
			tail := traceWant[len(traceWant)-len(traceGot):]
			for i := range traceGot {
				wantJSON, _ := json.Marshal(tail[i])
				gotJSON, _ := json.Marshal(traceGot[i])
				if string(wantJSON) != string(gotJSON) {
					t.Fatalf("trace record %d/%d diverged:\nreference: %s\npromoted:  %s",
						i, len(traceGot), wantJSON, gotJSON)
				}
			}
		})
	}
}

// TestReplLogsByteEqual pins what a follower's log is: the leader's,
// frame for frame. The follower decodes each replicated record and
// appends it through its own writer, which encodes it again, so the
// equality rests on the record encoding being canonical. The workload
// crosses every branch of that encoding — span-context events from a
// pipelined client, retried batches, batch-size stamps, faults — after
// a checkpoint rotation both logs take at the same sequence.
func TestReplLogsByteEqual(t *testing.T) {
	leaderDir := filepath.Join(t.TempDir(), "leader")
	followerDir := filepath.Join(t.TempDir(), "follower")
	leaderSrv, leaderClient, leaderAddr, ft := startReplLeader(t, leaderDir, -1)
	followerSrv, followerClient := startReplFollower(t, followerDir, leaderAddr, leaderSrv.journal.meta, -1, 0)

	pipe, err := DialBinary(leaderAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	pipe.EnableSpans(7)
	// Every chunk is its own goroutine on the one Client, so batches ride
	// the connection together; even chunks go as marked resubmissions.
	submit := func(i int, specs []EventSpec) error {
		if i%2 == 0 {
			resp := pipe.Do(Request{Op: OpSubmitBatch, Events: specs, Retry: true})
			if !resp.OK || len(resp.Verdicts) != len(specs) {
				return fmt.Errorf("retried batch %d: %+v", i, resp)
			}
			return nil
		}
		_, _, err := pipe.SubmitBatch(specs)
		return err
	}
	chunks := walWorkload(ft, 51, 5, 3)
	errs := make(chan error, len(chunks))
	var wg sync.WaitGroup
	for i, ch := range chunks {
		if i == 1 {
			// Rotate once the first batch is in the log.
			wg.Wait()
			if err := leaderSrv.ForceCheckpoint(); err != nil {
				t.Fatalf("ForceCheckpoint: %v", err)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- submit(i, ch.specs)
		}()
		if ch.fault != nil {
			if _, err := leaderClient.Fault(*ch.fault); err != nil {
				t.Fatalf("Fault(%s): %v", ch.fault.Action, err)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("pipelined batch: %v", err)
		}
	}
	st, err := leaderClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, followerClient, st.WALLastSeq)
	waitFor(t, 10*time.Second, "follower to take the leader's checkpoint", func() bool {
		fst, err := followerClient.Stats()
		if err != nil {
			t.Fatalf("Stats: %v", err)
		}
		return fst.WALCheckpointSeq == st.WALCheckpointSeq
	})
	if st.WALCheckpointSeq == 0 {
		t.Fatal("the leader never rotated")
	}
	if err := followerSrv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := leaderSrv.Close(); err != nil {
		t.Fatal(err)
	}

	// Both logs hold (checkpoint, last]: the rotation purged the rest.
	frames := func(dir string) ([][]byte, []*wal.Record) {
		log, err := wal.Open(dir)
		if err != nil {
			t.Fatalf("wal.Open(%s): %v", dir, err)
		}
		var fs [][]byte
		var recs []*wal.Record
		err = wal.EmitFrames(log.Segments(), st.WALCheckpointSeq, st.WALLastSeq, func(frame []byte, rec *wal.Record) error {
			fs = append(fs, append([]byte(nil), frame...))
			recs = append(recs, rec)
			return nil
		})
		if err != nil {
			t.Fatalf("EmitFrames(%s): %v", dir, err)
		}
		return fs, recs
	}
	want, recs := frames(leaderDir)
	got, _ := frames(followerDir)
	if len(got) != len(want) {
		t.Fatalf("follower emits %d records over (%d, %d], leader %d", len(got), st.WALCheckpointSeq, st.WALLastSeq, len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("seq %d differs:\n leader   %x\n follower %x", recs[i].ID.Seq, want[i], got[i])
		}
	}
	var faults, spans, retries, batches int
	for _, rec := range recs {
		if rec.Type == wal.TypeFault {
			faults++
			continue
		}
		if rec.Type == wal.TypeRound {
			continue
		}
		if rec.Event.Origin != 0 {
			spans++
		}
		if rec.Event.Retry {
			retries++
		}
		if rec.Event.BatchSize > 0 {
			batches++
		}
	}
	if faults == 0 || spans == 0 || retries == 0 || batches == 0 {
		t.Fatalf("compared range lacks a branch: %d faults, %d span events, %d retried, %d batch stamps",
			faults, spans, retries, batches)
	}
}

// TestReplAttachRejections pins the leader-side handshake rejections a
// client can provoke end to end (the full verdict table is unit-tested
// in internal/repl).
func TestReplAttachRejections(t *testing.T) {
	leaderDir := filepath.Join(t.TempDir(), "leader")
	leaderSrv, leaderClient, leaderAddr, ft := startReplLeader(t, leaderDir, -1)
	playChunk(t, leaderClient, walWorkload(ft, 41, 1, 3)[0])
	st, err := leaderClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	meta := leaderSrv.journal.meta

	// A follower claiming a seq past the leader's log replicated from a
	// different history.
	sess, err := dialFollowerSession(&FollowerConfig{LeaderAddr: leaderAddr, Meta: &meta}, 1, st.WALLastSeq+10, false)
	if err != nil {
		t.Fatal(err)
	}
	if sess.welcome.Code != repl.CodeAhead {
		t.Fatalf("ahead follower: code %q, want %q", sess.welcome.Code, repl.CodeAhead)
	}
	sess.conn.Close()

	// A different world is refused before any frame flows.
	otherMeta := meta
	otherMeta.Scheduler = "fifo"
	sess, err = dialFollowerSession(&FollowerConfig{LeaderAddr: leaderAddr, Meta: &otherMeta}, 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if sess.welcome.Code != repl.CodeMetaMismatch {
		t.Fatalf("mismatched world: code %q, want %q", sess.welcome.Code, repl.CodeMetaMismatch)
	}
	sess.conn.Close()

	// The configured cap (default 1): a second live session is refused.
	followerDir := filepath.Join(t.TempDir(), "follower")
	_, followerClient := startReplFollower(t, followerDir, leaderAddr, meta, -1, 0)
	waitCaughtUp(t, followerClient, st.WALLastSeq)
	sess, err = dialFollowerSession(&FollowerConfig{LeaderAddr: leaderAddr, Meta: &meta}, 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if sess.welcome.Code != repl.CodeFull {
		t.Fatalf("second follower: code %q, want %q", sess.welcome.Code, repl.CodeFull)
	}
	sess.conn.Close()

	// A server running without a WAL has nothing to replicate.
	planner, scheduler, _ := buildWALWorld(t, true)
	plain := mustNew(t, Config{Planner: planner, Scheduler: scheduler, Sim: sim.Config{InstallTime: time.Millisecond}})
	_, plainAddr := serveAndDial(t, plain)
	sess, err = dialFollowerSession(&FollowerConfig{LeaderAddr: plainAddr, Meta: &meta}, 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if sess.welcome.Code != repl.CodeNoWAL {
		t.Fatalf("no-wal server: code %q, want %q", sess.welcome.Code, repl.CodeNoWAL)
	}
	sess.conn.Close()
}

// TestReplFollowerFoldsPipelinedBatches is the regression test for a
// fold-divergence bug: under pipelined load the leader admits records
// mid-cascade, stamping them with whatever round count its engine had
// reached, so a follower that runs rounds of its own — between applies
// in the state loop, or in the recovery drain at boot — pushes its
// clock past the next record's stamp and the fold's clock assertion
// fires ("wal replay diverged"). Every other test in this suite waits
// each chunk to quiescence before the next submit, which hides the
// bug: at a quiesced boundary the free-running follower lands on the
// same clock as the fold. This one never waits between batches, so
// every batch after the first is admitted while earlier events are
// still executing, and it fires faults mid-flight for the same reason.
//
// The log is grown past ten checkpoint intervals before the leader is
// dropped, so both sides rotate many times and the promotion's reported
// failover time and lag are checked on a follower with real history.
func TestReplFollowerFoldsPipelinedBatches(t *testing.T) {
	leaderDir := filepath.Join(t.TempDir(), "leader")
	followerDir := filepath.Join(t.TempDir(), "follower")

	// ckptEvery 4 forces rotations while the cascade is still running; a
	// done window a third of the workload makes both sides evict while
	// they fold, so the digests below compare two windows that wrapped.
	const ckptEvery, window = 4, 12
	leaderSrv, leaderClient, leaderAddr, ft := startReplLeaderWindow(t, leaderDir, ckptEvery, window)
	followerSrv, followerClient := startReplFollowerWindow(t, followerDir, leaderAddr, leaderSrv.journal.meta, ckptEvery, window, 0)

	// Flatten a chunked workload into back-to-back submissions: batch,
	// fault, batch, ... with no WaitDone anywhere in between.
	chunks := walWorkload(ft, 29, 10, 4)
	var ids, repairs []int64
	for _, ch := range chunks {
		got, err := leaderClient.SubmitBatchRetry(ch.specs, 5)
		if err != nil {
			t.Fatalf("SubmitBatchRetry: %v", err)
		}
		ids = append(ids, got...)
		if ch.fault != nil {
			res, err := leaderClient.Fault(*ch.fault)
			if err != nil {
				t.Fatalf("Fault(%s): %v", ch.fault.Action, err)
			}
			if res.RepairEventID != 0 {
				repairs = append(repairs, res.RepairEventID)
			}
		}
	}
	// Wait on the totals, not per event: the first completions leave the
	// shrunk window long before the last one lands.
	var leaderStats Stats
	waitFor(t, 15*time.Second, "the leader to drain the workload", func() bool {
		var err error
		if leaderStats, err = leaderClient.Stats(); err != nil {
			t.Fatalf("Stats: %v", err)
		}
		return leaderStats.EventsQueued == 0 && leaderStats.EventsDone == len(ids)+len(repairs)
	})
	// Fail fast on a fold error instead of timing out on catch-up: a
	// diverged follower stops applying, so its seq would stall forever.
	waitFor(t, 15*time.Second, fmt.Sprintf("follower to fold through seq %d", leaderStats.WALLastSeq), func() bool {
		info, err := followerClient.ReplStatus()
		if err != nil {
			t.Fatalf("ReplStatus: %v", err)
		}
		if info.LastError != "" {
			t.Fatalf("follower fold failed at seq %d: %s", info.LastSeq, info.LastError)
		}
		return info.LastSeq >= leaderStats.WALLastSeq
	})
	if leaderStats.WALLastSeq < 10*ckptEvery {
		t.Fatalf("log ends at seq %d, want at least %d", leaderStats.WALLastSeq, 10*ckptEvery)
	}
	// A follower checkpoints only on the leader's announcement, so both
	// logs must have rotated the same number of times, last at one seq.
	waitFor(t, 10*time.Second, "follower to fold the last checkpoint announcement", func() bool {
		st, err := followerClient.Stats()
		if err != nil {
			t.Fatalf("Stats: %v", err)
		}
		return st.WALCheckpointSeq == leaderStats.WALCheckpointSeq
	})
	followerStats, err := followerClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if leaderStats.WALCheckpoints < 5 || followerStats.WALCheckpoints != leaderStats.WALCheckpoints {
		t.Fatalf("rotations: leader %d, follower %d; want several, at identical sequences",
			leaderStats.WALCheckpoints, followerStats.WALCheckpoints)
	}

	// The promoted follower must be the quiesced leader's state, exactly.
	want := captureDigest(t, leaderSrv, leaderClient)
	if err := leaderSrv.Close(); err != nil {
		t.Fatal(err)
	}
	pInfo, err := followerClient.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if pInfo.Role != "leader" || pInfo.Term < 2 {
		t.Fatalf("after promote: %+v", pInfo)
	}
	got := captureDigest(t, followerSrv, followerClient)
	diffDigest(t, want, got)
	// ... and that state is a wrapped window on both: the totals count
	// every event, the last `window` are listed in one completion order,
	// and the first one submitted has left both memories.
	if want.Stats.EventsDone < len(ids) || want.Stats.EventsRetained != window || len(want.Results) != window {
		t.Errorf("leader: %d events done, %d retained, %d results; want >= %d done and a full window of %d",
			want.Stats.EventsDone, want.Stats.EventsRetained, len(want.Results), len(ids), window)
	}
	if st, err := followerClient.Status(ids[0]); err != nil || st.State != StateUnknown {
		t.Errorf("promoted follower: status of the oldest event = %+v, %v; want unknown", st, err)
	}
	if st, err := followerClient.Status(want.Results[0].EventID); err != nil || st != want.Results[0] {
		t.Errorf("promoted follower: status of the oldest retained event = %+v, %v; the leader listed %+v", st, err, want.Results[0])
	}

	// Both views of the promotion agree: how long it took, and that a
	// leader has no lag.
	promoted, err := followerClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if pInfo.FailoverMs < 0 || pInfo.FailoverMs != promoted.ReplFailoverMs {
		t.Errorf("failover time: repl status %d ms, stats %d ms", pInfo.FailoverMs, promoted.ReplFailoverMs)
	}
	if pInfo.LagRecords != 0 || promoted.ReplLagRecords != 0 {
		t.Errorf("promoted leader reports lag: repl status %d, stats %d", pInfo.LagRecords, promoted.ReplLagRecords)
	}
}
