package ctl

import (
	"encoding/json"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/flow"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
	"netupdate/internal/wal"
)

// Round records: a leader logs the outcome of every planned round, and
// recovery and a follower's fold apply it instead of planning the round
// again. These tests hold the applied rounds to the re-planned ones.

// roundWorld is the world of the round-record tests: the k = 4
// fat-tree loaded to 75 % with 20-200 Mbps background flows (unless a
// checkpoint restores them), victims splittable and desired paths
// hashed, so that rounds plan migrations and are worth logging.
func roundWorld(t testing.TB, fill bool) (*core.Planner, *topology.FatTree) {
	t.Helper()
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(7))
	if fill {
		hosts := ft.Hosts()
		rng := rand.New(rand.NewSource(1))
		for net.Utilization() < 0.75 {
			src, dst := rng.Intn(len(hosts)), rng.Intn(len(hosts)-1)
			if dst >= src {
				dst++
			}
			f, err := net.AddFlow(flow.Spec{Src: hosts[src], Dst: hosts[dst],
				Demand: topology.Bandwidth(20+rng.Intn(180)) * topology.Mbps, Size: 1 << 20, Event: flow.NoEvent})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := net.PlaceBest(f); err != nil {
				if err := net.Remove(f); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	}
	mig := migration.NewPlanner(net, 0)
	mig.SetAllowSplit(true)
	mig.SetDesiredPolicy(migration.DesiredHash)
	return core.NewPlanner(mig, core.FailSkip), ft
}

// roundConfig is a server on roundWorld journaling into the log in dir.
func roundConfig(t testing.TB, dir string, s sched.Scheduler) (Config, *topology.FatTree) {
	t.Helper()
	log, err := wal.Open(dir)
	if err != nil {
		t.Fatalf("wal.Open(%s): %v", dir, err)
	}
	planner, ft := roundWorld(t, log.Checkpoint() == nil)
	return Config{Planner: planner, Scheduler: s, Sim: sim.Config{InstallTime: time.Millisecond},
		WAL: &WALConfig{Log: log, CheckpointEvery: -1}}, ft
}

// startRoundServer brings up a P-LMTF server on roundConfig, recovering
// the log in dir first.
func startRoundServer(t *testing.T, dir string) (*Server, *Client, *RecoveryInfo, *topology.FatTree) {
	t.Helper()
	cfg, ft := roundConfig(t, dir, sched.NewPLMTF(2, 1))
	srv, rec, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	client, _ := serveAndDial(t, srv)
	return srv, client, rec, ft
}

// roundWorkload is walWorkload's chunks and faults (install timeouts, a
// link down and back up) with heavier events — 4-12 flows of 50-400 Mbps
// — so that rounds plan migrations and are worth logging.
func roundWorkload(ft *topology.FatTree, seed int64) []walChunk {
	chunks := walWorkload(ft, seed, 5, 4)
	rng := rand.New(rand.NewSource(seed))
	hosts := ft.Hosts()
	for c := range chunks {
		for e := range chunks[c].specs {
			flows := make([]FlowSpec, 4+rng.Intn(9))
			for i := range flows {
				src, dst := rng.Intn(len(hosts)), rng.Intn(len(hosts)-1)
				if dst >= src {
					dst++
				}
				flows[i] = FlowSpec{Src: int(hosts[src]), Dst: int(hosts[dst]), DemandBps: int64(50+rng.Intn(350)) * 1e6}
			}
			chunks[c].specs[e].Flows = flows
		}
	}
	return chunks
}

// runRoundWorkload plays roundWorkload on a fresh server journaling into
// dir and closes it, which logs the rounds it ran after its last input.
// It returns the digest and the trace the server ended with.
func runRoundWorkload(t *testing.T, dir string) (runDigest, []json.RawMessage) {
	t.Helper()
	srv, client, _, ft := startRoundServer(t, dir)
	for _, ch := range roundWorkload(ft, 23) {
		playChunk(t, client, ch)
	}
	d := captureDigest(t, srv, client)
	tr := traceOf(t, client)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	return d, tr
}

// traceOf reads a server's trace, each record as JSON.
func traceOf(t *testing.T, client *Client) []json.RawMessage {
	t.Helper()
	recs, err := client.Trace(0)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	out := make([]json.RawMessage, len(recs))
	for i, r := range recs {
		if out[i], err = json.Marshal(r); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// rewriteLog copies the log in src to dst through edit: the checkpoint
// as it is, then every record after it that edit keeps (edit returns
// false to drop one, and may change it), renumbered from the
// checkpoint's sequence on. It returns the number of records dropped.
func rewriteLog(tb testing.TB, src, dst string, edit func(*wal.Record) bool) int {
	tb.Helper()
	in, err := wal.Open(src)
	if err != nil {
		tb.Fatal(err)
	}
	out, err := wal.Open(dst)
	if err != nil {
		tb.Fatal(err)
	}
	var id wal.ID
	var rounds int64
	if ck := in.Checkpoint(); ck != nil {
		if err := out.InstallCheckpoint(ck); err != nil {
			tb.Fatal(err)
		}
		id, rounds = ck.ID, ck.Rounds
	}
	w, err := out.OpenWriter(in.Meta(), id, rounds)
	if err != nil {
		tb.Fatal(err)
	}
	seq, dropped := id.Seq, 0
	if _, err := in.Replay(id.Seq, func(rec *wal.Record) error {
		out := *rec
		if !edit(&out) {
			dropped++
			return nil
		}
		seq++
		out.ID.Seq = seq
		return w.Append(&out)
	}); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return dropped
}

// dropRounds is a rewriteLog edit that leaves the log an older build, a
// FIFO run or a crash before any round was logged would have written:
// inputs only.
func dropRounds(rec *wal.Record) bool { return rec.Type != wal.TypeRound }

// logRounds counts a log's round records, those among them that
// co-schedule, the migrations their lanes plan and the probes their
// decisions ran.
func logRounds(t *testing.T, dir string) (rounds, coScheduled, steps, probes int) {
	t.Helper()
	log, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Replay(0, func(rec *wal.Record) error {
		if rec.Type != wal.TypeRound {
			return nil
		}
		rounds++
		probes += rec.Round.Probes
		if len(rec.Round.Lanes) > 1 {
			coScheduled++
		}
		for _, l := range rec.Round.Lanes {
			for _, f := range l.Flows {
				steps += len(f.Steps)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rounds, coScheduled, steps, probes
}

// probesOf reads the probes srv's planner has run since it was built.
func probesOf(t *testing.T, srv *Server) int64 {
	t.Helper()
	var n int64
	if err := srv.onLoop(func() error {
		n = int64(srv.planner.ProbeStats().Probes)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestLoggedRoundsReplayAsReplanned: a P-LMTF log with faults and
// install timeouts, holding records of some of its rounds, recovers to
// the same digest and trace — those of the run that wrote it — whether
// recovery applies the round records or, from a copy without them, plans
// every round again; and applying a logged round runs no probe.
func TestLoggedRoundsReplayAsReplanned(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	live, liveTrace := runRoundWorkload(t, dir)
	rounds, co, steps, logged := logRounds(t, dir)
	if rounds == 0 || co == 0 || steps == 0 {
		t.Fatalf("log lacks a branch: %d rounds, %d co-scheduled, %d migrations", rounds, co, steps)
	}
	if int64(rounds) >= live.Stats.Rounds {
		t.Fatalf("all %d rounds logged: the log has no round to plan again", rounds)
	}
	replanned := filepath.Join(t.TempDir(), "replanned")
	if dropped := rewriteLog(t, dir, replanned, dropRounds); dropped != rounds {
		t.Fatalf("rewrite dropped %d records, the log holds %d rounds", dropped, rounds)
	}

	srvL, clientL, recL, _ := startRoundServer(t, dir)
	srvR, clientR, recR, _ := startRoundServer(t, replanned)
	if recL.ReplayedRounds != rounds || recR.ReplayedRounds != 0 || recL.ReplayedRecords != recR.ReplayedRecords {
		t.Fatalf("logged recovery replayed %d records and %d rounds, replanned %d and %d; want %d rounds and equal records",
			recL.ReplayedRecords, recL.ReplayedRounds, recR.ReplayedRecords, recR.ReplayedRounds, rounds)
	}
	// Only the rounds the log holds no record of are planned again.
	if p, want := probesOf(t, srvL), live.Stats.Probes-int64(logged); p != want {
		t.Errorf("recovery with %d logged rounds ran %d probes, want the %d of the others", rounds, p, want)
	}
	if p := probesOf(t, srvR); p != live.Stats.Probes {
		t.Errorf("re-planning every round ran %d probes, want %d", p, live.Stats.Probes)
	}

	dl, dr := captureDigest(t, srvL, clientL), captureDigest(t, srvR, clientR)
	if dl.Stats.WALLastSeq != dr.Stats.WALLastSeq+int64(rounds) {
		t.Errorf("logged recovery at seq %d, replanned at %d: want %d rounds apart", dl.Stats.WALLastSeq, dr.Stats.WALLastSeq, rounds)
	}
	// The live digest was taken before Close logged the last rounds.
	dr.Stats.WALLastSeq, live.Stats.WALLastSeq = dl.Stats.WALLastSeq, dl.Stats.WALLastSeq
	diffDigest(t, dl, dr)
	diffDigest(t, live, dl)

	traceL, traceR := traceOf(t, clientL), traceOf(t, clientR)
	if len(traceL) != len(liveTrace) || len(traceR) != len(liveTrace) {
		t.Fatalf("traces of %d (logged) and %d (replanned) records, live %d", len(traceL), len(traceR), len(liveTrace))
	}
	for i := range liveTrace {
		if string(traceL[i]) != string(liveTrace[i]) || string(traceR[i]) != string(liveTrace[i]) {
			t.Fatalf("trace record %d diverged:\nlive:      %s\nlogged:    %s\nreplanned: %s", i, liveTrace[i], traceL[i], traceR[i])
		}
	}
}

// TestLoggedRoundTamperDiverges: a round record that no longer fits the
// world it is applied to fails recovery with ErrReplayDiverged — never a
// silently different state.
func TestLoggedRoundTamperDiverges(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	runRoundWorkload(t, dir)
	for _, tc := range []struct {
		name string
		// tamper changes a round record, or reports that it cannot.
		tamper func(*wal.RoundRecord, *wal.Record) bool
	}{
		{"victim-not-on-its-path", func(r *wal.RoundRecord, _ *wal.Record) bool {
			for _, l := range r.Lanes {
				for _, f := range l.Flows {
					if len(f.Steps) > 0 {
						f.Steps[0].From = f.Steps[0].To
						return true
					}
				}
			}
			return false
		}},
		{"stamp-one-ahead", func(_ *wal.RoundRecord, rec *wal.Record) bool {
			rec.Rounds++
			return true
		}},
		{"stamp-one-behind", func(_ *wal.RoundRecord, rec *wal.Record) bool {
			rec.Rounds--
			return rec.Rounds >= 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tampered := filepath.Join(t.TempDir(), "wal")
			done := false
			rewriteLog(t, dir, tampered, func(rec *wal.Record) bool {
				if !done && rec.Type == wal.TypeRound {
					saved := *rec
					if done = tc.tamper(rec.Round, rec); !done {
						*rec = saved
					}
				}
				return true
			})
			if !done {
				t.Fatal("no round record to tamper with")
			}
			cfg, _ := roundConfig(t, tampered, sched.NewPLMTF(2, 1))
			srv, _, err := New(cfg)
			if err == nil {
				srv.Close()
			}
			if !errors.Is(err, ErrReplayDiverged) {
				t.Fatalf("recovery of a tampered round: %v, want ErrReplayDiverged", err)
			}
			t.Log(err)
		})
	}
}

// TestFIFOLogsNoRounds: a FIFO decision carries no plan, so a FIFO
// server's log holds its inputs and no round record.
func TestFIFOLogsNoRounds(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg, ft := roundConfig(t, dir, sched.FIFO{})
	srv, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	client, _ := serveAndDial(t, srv)
	for _, ch := range roundWorkload(ft, 23) {
		playChunk(t, client, ch)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if rounds, _, _, _ := logRounds(t, dir); rounds != 0 || st.Rounds == 0 {
		t.Fatalf("FIFO log holds %d round records after %d rounds, want none", rounds, st.Rounds)
	}
}

// TestReplFollowerAppliesLoggedRounds: a follower folds the leader's
// round records without planning them — it plans only the rounds the log
// holds no record of — and once promoted logs the rounds it runs itself.
func TestReplFollowerAppliesLoggedRounds(t *testing.T) {
	leaderDir := filepath.Join(t.TempDir(), "leader")
	followerDir := filepath.Join(t.TempDir(), "follower")
	cfg, ft := roundConfig(t, leaderDir, sched.NewPLMTF(2, 1))
	cfg.Replication.heartbeatEvery = 50 * time.Millisecond
	leaderSrv, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	leaderClient, leaderAddr := serveAndDial(t, leaderSrv)
	flog, err := wal.Open(followerDir)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := FollowerConfig{Log: flog, Meta: &leaderSrv.journal.meta, LeaderAddr: leaderAddr,
		CheckpointEvery: -1, reconnectEvery: 50 * time.Millisecond}
	sess, err := FollowerBootstrap(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	planner, _ := roundWorld(t, true)
	followerSrv, _, err := NewFollower(planner, sched.NewPLMTF(2, 1), sim.Config{InstallTime: time.Millisecond}, fcfg, sess,
		func(c *Config) { c.Replication.heartbeatEvery = 50 * time.Millisecond })
	if err != nil {
		t.Fatal(err)
	}
	followerClient, _ := serveAndDial(t, followerSrv)

	for _, ch := range roundWorkload(ft, 23) {
		playChunk(t, leaderClient, ch)
	}
	st, err := leaderClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, followerClient, st.WALLastSeq)
	if err := followerSrv.onLoop(followerSrv.foldAll); err != nil {
		t.Fatal(err)
	}
	fst, err := followerClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	rounds, _, _, logged := logRounds(t, followerDir)
	if rounds == 0 || int64(rounds) >= fst.Rounds {
		t.Fatalf("the follower folded %d rounds, %d of them logged: want some of each", fst.Rounds, rounds)
	}
	if p, want := probesOf(t, followerSrv), fst.Probes-int64(logged); p != want {
		t.Errorf("the follower ran %d probes folding %d rounds, %d of them logged; want the %d of the others", p, fst.Rounds, rounds, want)
	}

	if err := leaderSrv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := followerClient.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	for _, ch := range roundWorkload(ft, 31) {
		playChunk(t, followerClient, ch)
	}
	if err := followerSrv.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(followerDir)
	if err != nil {
		t.Fatal(err)
	}
	var own int
	if _, err := log.Replay(st.WALLastSeq, func(rec *wal.Record) error {
		if rec.Type == wal.TypeRound {
			own++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if own == 0 {
		t.Fatalf("the promoted follower logged no round after seq %d", st.WALLastSeq)
	}
}

// paperLog writes the log BenchmarkRecoverLoggedRounds recovers, in dir:
// paper_plan's shape — P-LMTF (α = 4) on the k = 8 fat-tree at 60 %
// background utilization, events of 10-100 flows — with a checkpoint
// after a 60-event warm batch and a 150-event batch behind it.
func paperLog(b *testing.B, dir string) {
	b.Helper()
	cfg, hosts := paperConfig(b, dir)
	srv, _, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	gen, err := trace.NewGenerator(2, trace.YahooLike{}, hosts)
	if err != nil {
		b.Fatal(err)
	}
	done := 0
	batch := func(n int) {
		specs := make([]EventSpec, n)
		for i := range specs {
			ev := gen.Event(0, "bench", 0, 10, 100)
			specs[i] = EventSpec{Kind: "bench", Flows: make([]FlowSpec, len(ev.Specs))}
			for j, s := range ev.Specs {
				specs[i].Flows[j] = FlowSpec{Src: int(s.Src), Dst: int(s.Dst), DemandBps: int64(s.Demand), SizeBytes: s.Size}
			}
		}
		if _, _, err := srv.SubmitBatch(specs); err != nil {
			b.Fatal(err)
		}
		done += n
		for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
			st, err := srv.Stats()
			if err != nil {
				b.Fatal(err)
			}
			if st.EventsDone == done {
				return
			}
			if time.Now().After(deadline) {
				b.Fatalf("%d of %d events done after a minute", st.EventsDone, done)
			}
		}
	}
	batch(60)
	if err := srv.ForceCheckpoint(); err != nil {
		b.Fatal(err)
	}
	batch(150)
	if err := srv.Close(); err != nil {
		b.Fatal(err)
	}
}

// paperConfig is paper_plan's world over the log in dir, unfilled when
// the log's checkpoint restores the flows.
func paperConfig(b *testing.B, dir string) (Config, []topology.NodeID) {
	b.Helper()
	log, err := wal.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	w, err := sim.Genesis{K: 8, Seed: 1}.Fabric()
	if err != nil {
		b.Fatal(err)
	}
	if log.Checkpoint() == nil {
		if err := w.Fill(w.FatTree.Hosts(), 1, 0.6); err != nil {
			b.Fatal(err)
		}
	}
	return Config{Planner: w.Planner, Scheduler: sched.NewPLMTF(4, 1), Sim: sim.Config{InstallTime: time.Millisecond},
		WAL: &WALConfig{Log: log, CheckpointEvery: -1}}, w.FatTree.Hosts()
}

// BenchmarkRecoverLoggedRounds: what recovery pays to restore the
// checkpoint of paperLog and replay the 150-event batch behind it, when
// the log holds the batch's round records (logged) and when it holds its
// inputs only (replanned, rewritten by rewriteLog). Building the world
// and closing the server are excluded.
func BenchmarkRecoverLoggedRounds(b *testing.B) {
	logged := filepath.Join(b.TempDir(), "logged")
	paperLog(b, logged)
	replanned := filepath.Join(b.TempDir(), "replanned")
	rewriteLog(b, logged, replanned, dropRounds)
	for _, bc := range []struct{ name, dir string }{{"logged", logged}, {"replanned", replanned}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// Recovery logs the rounds it re-plans past the last
				// record at Close, so each one starts from a fresh copy.
				dir := filepath.Join(b.TempDir(), "wal")
				copyDir(b, bc.dir, dir)
				cfg, _ := paperConfig(b, dir)
				b.StartTimer()
				srv, rec, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if rec.ReplayedRecords != 150 {
					b.Fatalf("recovery replayed %d records, want the batch's 150", rec.ReplayedRecords)
				}
				if err := srv.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
