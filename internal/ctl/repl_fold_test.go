package ctl

import (
	"path/filepath"
	"testing"
	"time"

	"netupdate/internal/topology"
)

// The fold behind the ack: a follower acks what its WAL holds and folds
// it afterwards, on its state loop, between commands. These tests hold
// that fold (journal.foldHeld) to pin what may and may not wait for it.

// setFold lowers a follower's backlog cap (0 keeps it) and holds or
// releases its fold, on its state loop.
func setFold(t *testing.T, srv *Server, foldCap int, held bool) {
	t.Helper()
	err := srv.onLoop(func() error {
		if foldCap > 0 {
			srv.journal.foldCap = foldCap
		}
		srv.journal.foldHeld = held
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// unfoldedOf reads a follower's backlog and appended sequence on its
// state loop.
func unfoldedOf(t *testing.T, srv *Server) (backlog int, seq int64) {
	t.Helper()
	err := srv.onLoop(func() error {
		backlog, seq = srv.journal.unfolded(), srv.journal.seq
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return backlog, seq
}

// holdAndPlay holds the follower's fold, plays chunks to completion on
// the leader — every commit gated on the follower's ack — and returns
// the leader's last sequence once the follower holds all of it unfolded.
func holdAndPlay(t *testing.T, follower *Server, leaderClient *Client, chunks []walChunk) int64 {
	t.Helper()
	setFold(t, follower, 0, true)
	for _, ch := range chunks {
		playChunk(t, leaderClient, ch)
	}
	st, err := leaderClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var backlog int
	waitFor(t, 10*time.Second, "follower to append the held chunks", func() bool {
		var seq int64
		backlog, seq = unfoldedOf(t, follower)
		return seq == st.WALLastSeq
	})
	if backlog == 0 {
		t.Fatal("the held fold left no backlog: the test proves nothing")
	}
	return st.WALLastSeq
}

// startFoldPair starts a leader and a synced follower that has folded a
// first chunk.
func startFoldPair(t *testing.T, followerDir string, ckptEvery int) (leader, follower *Server, leaderClient, followerClient *Client, leaderAddr string, ft *topology.FatTree) {
	t.Helper()
	leader, leaderClient, leaderAddr, ft = startReplLeader(t, filepath.Join(t.TempDir(), "leader"), ckptEvery)
	follower, followerClient = startReplFollower(t, followerDir, leaderAddr, leader.journal.meta, ckptEvery, 0)
	playChunk(t, leaderClient, walWorkload(ft, 61, 1, 3)[0])
	st, err := leaderClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, followerClient, st.WALLastSeq)
	return leader, follower, leaderClient, followerClient, leaderAddr, ft
}

// TestReplCommitReturnsBeforeFold: the leader's commit waits for the
// synced follower's ack, and that ack attests durability only — every
// submit returns while the follower still holds the records unfolded,
// and its lag counts them.
func TestReplCommitReturnsBeforeFold(t *testing.T) {
	leader, follower, leaderClient, followerClient, _, ft := startFoldPair(t, filepath.Join(t.TempDir(), "follower"), -1)
	last := holdAndPlay(t, follower, leaderClient, walWorkload(ft, 62, 3, 3))

	info, err := leaderClient.ReplStatus()
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Followers) != 1 || !info.Followers[0].Synced || info.Followers[0].AckedSeq != last {
		t.Fatalf("leader's view of the follower: %+v, want synced and acked through %d", info.Followers, last)
	}
	backlog, _ := unfoldedOf(t, follower)
	st, err := followerClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.WALLastSeq != last || st.ReplLagRecords != int64(backlog) {
		t.Fatalf("follower holds seq %d with lag %d, want seq %d and a lag of its %d unfolded records",
			st.WALLastSeq, st.ReplLagRecords, last, backlog)
	}

	// Released, the fold catches up and the follower is the leader.
	setFold(t, follower, 0, false)
	waitCaughtUp(t, followerClient, last)
	want := captureDigest(t, leader, leaderClient)
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := followerClient.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	diffDigest(t, want, captureDigest(t, follower, followerClient))
}

// TestReplPromotionFoldsBacklog: a promotion folds the whole backlog —
// held or not — before it drains and serves.
func TestReplPromotionFoldsBacklog(t *testing.T) {
	leader, follower, leaderClient, followerClient, _, ft := startFoldPair(t, filepath.Join(t.TempDir(), "follower"), -1)
	last := holdAndPlay(t, follower, leaderClient, walWorkload(ft, 63, 3, 3))

	want := captureDigest(t, leader, leaderClient)
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := followerClient.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if info.LastSeq != last || info.LagRecords != 0 {
		t.Fatalf("promoted at seq %d with lag %d, want seq %d and no lag", info.LastSeq, info.LagRecords, last)
	}
	if backlog, _ := unfoldedOf(t, follower); backlog != 0 {
		t.Fatalf("promoted with %d records unfolded", backlog)
	}
	diffDigest(t, want, captureDigest(t, follower, followerClient))
}

// TestReplCheckpointFoldsBacklog: a checkpoint announcement folds the
// backlog before the follower freezes its state, so the follower's
// checkpoint is the fold at the announced sequence: a restart from it
// recovers the leader's state.
func TestReplCheckpointFoldsBacklog(t *testing.T) {
	followerDir := filepath.Join(t.TempDir(), "follower")
	leader, follower, leaderClient, followerClient, leaderAddr, ft := startFoldPair(t, followerDir, -1)
	last := holdAndPlay(t, follower, leaderClient, walWorkload(ft, 64, 3, 3))

	if err := leader.ForceCheckpoint(); err != nil {
		t.Fatalf("ForceCheckpoint: %v", err)
	}
	waitFor(t, 10*time.Second, "follower to take the announced checkpoint", func() bool {
		st, err := followerClient.Stats()
		if err != nil {
			t.Fatalf("Stats: %v", err)
		}
		return st.WALCheckpointSeq == last
	})
	if backlog, _ := unfoldedOf(t, follower); backlog != 0 {
		t.Fatalf("checkpointed with %d records unfolded", backlog)
	}

	// The fold is still held: only the checkpoint folded. A restart
	// thaws that checkpoint and replays nothing.
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	waitLeaderAlone(t, leaderClient)
	restarted, restartedClient := startReplFollower(t, followerDir, leaderAddr, leader.journal.meta, -1, 0)
	waitCaughtUp(t, restartedClient, last)
	if st, err := restartedClient.Stats(); err != nil || st.WALReplayed != 0 || st.WALCheckpointSeq != last {
		t.Fatalf("restart: checkpoint seq %d, %d records replayed (err %v); want the checkpoint at %d and none",
			st.WALCheckpointSeq, st.WALReplayed, err, last)
	}
	want := captureDigest(t, leader, leaderClient)
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := restartedClient.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	diffDigest(t, want, captureDigest(t, restarted, restartedClient))
}

// waitLeaderAlone waits until the leader has detached a closed
// follower's session, so a restarted follower is not refused as one
// session too many.
func waitLeaderAlone(t *testing.T, leaderClient *Client) {
	t.Helper()
	waitFor(t, 10*time.Second, "leader to detach the closed follower", func() bool {
		info, err := leaderClient.ReplStatus()
		if err != nil {
			t.Fatalf("ReplStatus: %v", err)
		}
		return len(info.Followers) == 0
	})
}

// TestReplFollowerRestartsWithUnfoldedBacklog: what a follower acked is
// in its WAL, folded or not. Closed with a backlog, it recovers by
// replaying its own log and ends at the leader's fold.
func TestReplFollowerRestartsWithUnfoldedBacklog(t *testing.T) {
	followerDir := filepath.Join(t.TempDir(), "follower")
	leader, follower, leaderClient, _, leaderAddr, ft := startFoldPair(t, followerDir, -1)
	last := holdAndPlay(t, follower, leaderClient, walWorkload(ft, 65, 3, 3))

	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	waitLeaderAlone(t, leaderClient)
	restarted, restartedClient := startReplFollower(t, followerDir, leaderAddr, leader.journal.meta, -1, 0)
	waitCaughtUp(t, restartedClient, last)
	want := captureDigest(t, leader, leaderClient)
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := restartedClient.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	diffDigest(t, want, captureDigest(t, restarted, restartedClient))
}

// TestReplFollowerStopsAckingAtFoldCap: at the backlog cap the follower
// reads no further frame, so it acks nothing more and the leader's next
// commit waits in its gate until the fold catches up below the cap.
func TestReplFollowerStopsAckingAtFoldCap(t *testing.T) {
	leader, follower, leaderClient, followerClient, _, ft := startFoldPair(t, filepath.Join(t.TempDir(), "follower"), -1)
	work := walWorkload(ft, 66, 2, 3)

	// One batch takes the held backlog to the cap; it is still acked.
	setFold(t, follower, 2, true)
	if _, err := leaderClient.SubmitBatchRetry(work[0].specs, 5); err != nil {
		t.Fatalf("SubmitBatchRetry: %v", err)
	}
	backlog, capped := unfoldedOf(t, follower)
	if backlog < 2 {
		t.Fatalf("backlog %d after a batch of %d, want at least the cap of 2", backlog, len(work[0].specs))
	}
	acked := func() int64 {
		fs := leader.journal.hub.sessions(0)
		if len(fs) != 1 {
			t.Fatalf("leader holds %d sessions, want 1", len(fs))
		}
		return fs[0].AckedSeq
	}
	if got := acked(); got != capped {
		t.Fatalf("leader saw acks through %d, the follower appended %d", got, capped)
	}

	// The next batch's commit waits: the follower does not read its frame.
	done := make(chan error, 1)
	go func() {
		_, err := leaderClient.SubmitBatchRetry(work[1].specs, 5)
		done <- err
	}()
	time.Sleep(300 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("the leader's commit returned while the follower sat at its cap (err %v)", err)
	default:
	}
	if got := acked(); got != capped {
		t.Fatalf("the follower acked through %d at its cap, want %d", got, capped)
	}
	if _, seq := unfoldedOf(t, follower); seq != capped {
		t.Fatalf("the follower appended through %d at its cap, want %d", seq, capped)
	}

	// Released, the fold drops below the cap and the stream resumes well
	// inside the leader's ack timeout: nobody is dropped.
	setFold(t, follower, 0, false)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SubmitBatchRetry: %v", err)
		}
	case <-time.After(DefaultAckTimeout):
		t.Fatal("the leader's commit still waits after the fold was released")
	}
	st, err := leaderClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplFollowerDrops != 0 || st.ReplSynced != 1 {
		t.Fatalf("leader dropped the capped follower: %d drops, %d synced", st.ReplFollowerDrops, st.ReplSynced)
	}
	waitCaughtUp(t, followerClient, st.WALLastSeq)
}
