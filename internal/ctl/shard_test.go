package ctl

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"netupdate/internal/sim"
	"netupdate/internal/topology"
	"netupdate/internal/wal"
)

// TestShardVerdictCodecByteIdentity: the verdict shard extension is
// flag-gated on both sides. A response encoded without the request flag
// is byte-identical whether or not verdicts carry a shard, and a
// shard-flagged encode of shardless verdicts is also unchanged — only
// the combination (request asked, verdict has one) extends the frame.
func TestShardVerdictCodecByteIdentity(t *testing.T) {
	base := Response{OK: true, Verdicts: []SubmitVerdict{
		{OK: true, EventID: 7},
		{Error: "overloaded", Overloaded: true},
	}}
	sharded := Response{OK: true, Verdicts: []SubmitVerdict{
		{OK: true, EventID: 7, Shard: 3},
		{Error: "overloaded", Overloaded: true},
	}}

	plain, err := AppendResponseFrame(nil, &base)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := AppendResponseFrame(nil, &sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, legacy) {
		t.Errorf("shardless encode changed by verdict Shard field:\n %x\n %x", plain, legacy)
	}
	flaggedZero, err := AppendResponseFrameFor(nil, &base, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, flaggedZero) {
		t.Errorf("shard-flagged encode of zero-shard verdicts changed:\n %x\n %x", plain, flaggedZero)
	}

	extended, err := AppendResponseFrameFor(nil, &sharded, true)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(plain, extended) {
		t.Fatal("shard-flagged encode did not extend the frame")
	}
	got, err := decodeResponseFrame(extended)
	if err != nil {
		t.Fatal(err)
	}
	if got.Verdicts[0].Shard != 3 || got.Verdicts[1].Shard != 0 {
		t.Errorf("decoded shards = %d,%d, want 3,0", got.Verdicts[0].Shard, got.Verdicts[1].Shard)
	}
	if got.Verdicts[0].EventID != 7 || !got.Verdicts[1].Overloaded {
		t.Errorf("shard extension corrupted verdict bodies: %+v", got.Verdicts)
	}
}

// TestShardRequestFlagRoundTrip: ShardInfo rides a request flag bit on
// the binary codec; frames without it are byte-identical to pre-shard
// frames.
func TestShardRequestFlagRoundTrip(t *testing.T) {
	req := Request{Op: OpSubmitBatch, Events: []EventSpec{
		{Kind: "test", Flows: []FlowSpec{{Src: 1, Dst: 2, DemandBps: 5}}},
	}}
	plain, err := AppendRequestFrame(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	req.ShardInfo = true
	flagged, err := AppendRequestFrame(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(flagged) {
		t.Fatalf("shard flag changed frame length: %d vs %d", len(plain), len(flagged))
	}
	if bytes.Equal(plain, flagged) {
		t.Fatal("shard flag not encoded")
	}
	got, err := ParseRequest(flagged)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ShardInfo {
		t.Error("ShardInfo lost in round-trip")
	}
	got, err = ParseRequest(plain)
	if err != nil {
		t.Fatal(err)
	}
	if got.ShardInfo {
		t.Error("ShardInfo set on an unflagged frame")
	}
}

// TestShardIDStriding: shard s of N mints IDs s, s+N, s+2N, ... and
// stamps its identity into verdicts and stats.
func TestShardIDStriding(t *testing.T) {
	planner, scheduler, ft := buildWALWorld(t, true)
	srv, _, err := New(Config{
		Planner: planner, Scheduler: scheduler,
		Sim:   sim.Config{InstallTime: time.Millisecond},
		Shard: ShardIdentity{ID: 2, Count: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	hosts := ft.Hosts()
	want := []int64{2, 6, 10}
	for i, wantID := range want {
		spec := EventSpec{Kind: "test", Flows: []FlowSpec{{
			Src: int(hosts[0]), Dst: int(hosts[1]), DemandBps: 1e6, SizeBytes: 1e4,
		}}}
		verdicts, _, err := srv.SubmitBatch([]EventSpec{spec})
		if err != nil {
			t.Fatal(err)
		}
		if verdicts[0].EventID != wantID {
			t.Errorf("event %d minted ID %d, want %d", i, verdicts[0].EventID, wantID)
		}
		if verdicts[0].Shard != 2 {
			t.Errorf("event %d verdict shard = %d, want 2", i, verdicts[0].Shard)
		}
	}
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardID != 2 || st.Shards != 4 {
		t.Errorf("stats shard = %d/%d, want 2/4", st.ShardID, st.Shards)
	}
}

// TestShardWALRecoveryKeepsStride: a sharded engine's WAL replays onto
// the same ID lattice, and the log refuses to fold into a different
// shard slot.
func TestShardWALRecoveryKeepsStride(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	var hosts []topology.NodeID
	boot := func(id, count int) (*Server, *RecoveryInfo, error) {
		log, err := wal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		planner, scheduler, ft := buildWALWorld(t, log.Checkpoint() == nil)
		hosts = ft.Hosts()
		return New(Config{
			Planner: planner, Scheduler: scheduler,
			Sim:   sim.Config{InstallTime: time.Millisecond},
			Shard: ShardIdentity{ID: id, Count: count},
			WAL:   &WALConfig{Log: log},
		})
	}

	srv, _, err := boot(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := EventSpec{Kind: "test", Flows: []FlowSpec{{
		Src: int(hosts[0]), Dst: int(hosts[1]), DemandBps: 1e6, SizeBytes: 1e4,
	}}}
	verdicts, _, err := srv.SubmitBatch([]EventSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if verdicts[0].EventID != 3 {
		t.Fatalf("first ID = %d, want 3", verdicts[0].EventID)
	}
	if _, _, err := srv.SubmitBatch([]EventSpec{spec}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopening in the same slot replays both events and keeps minting
	// on the lattice: next ID is 11.
	srv2, rec, err := boot(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.ReplayedRecords != 2 {
		t.Fatalf("recovery info = %+v, want 2 replayed records", rec)
	}
	verdicts, _, err = srv2.SubmitBatch([]EventSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if verdicts[0].EventID != 11 {
		t.Errorf("post-recovery ID = %d, want 11", verdicts[0].EventID)
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}

	// A different shard slot is a different world: the meta check
	// refuses before replaying anything.
	if bad, _, err := boot(2, 4); !errors.Is(err, wal.ErrMetaMismatch) {
		if err == nil {
			_ = bad.Close()
		}
		t.Errorf("wrong-slot boot error = %v, want ErrMetaMismatch", err)
	}
}
