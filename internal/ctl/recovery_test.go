package ctl

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/routing"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
	"netupdate/internal/wal"
)

// The crash-recovery tests exercise the full durability contract: a
// server journals every admission into a WAL directory, the test copies
// that directory at a commit boundary (a valid crash image, since every
// ack follows its group commit), boots a second server from the copy,
// replays the remaining workload against it, and requires the recovered
// run to converge to the uncrashed one — same stats, same results, same
// network snapshot, same trace suffix.

// buildWALWorld constructs the deterministic genesis world shared by
// every recovery test: the k=4 fat-tree of startServer with the same
// seeds. fill is false when a checkpoint will restore the flows.
func buildWALWorld(t *testing.T, fill bool) (*core.Planner, sched.Scheduler, *topology.FatTree) {
	t.Helper()
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	net1 := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(7))
	if fill {
		gen, err := trace.NewGenerator(1, trace.YahooLike{}, ft.Hosts())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.FillBackground(net1, gen, 0.3, 0); err != nil {
			t.Fatal(err)
		}
	}
	planner := core.NewPlanner(migration.NewPlanner(net1, 0), core.FailSkip)
	return planner, sched.NewPLMTF(2, 1), ft
}

// startWALServer opens (or reopens) a WAL directory and brings up a
// server journaling into it, recovering first when the directory holds
// history. Teardown mirrors startServer.
func startWALServer(t *testing.T, dir string, ckptEvery int, opts ...wal.Option) (*Server, *Client, *RecoveryInfo, *topology.FatTree) {
	t.Helper()
	return startWALServerWindow(t, dir, ckptEvery, 0, opts...)
}

// startWALServerWindow is startWALServer with the done window shrunk to
// window completions (0 keeps doneWindow), for tests that need evictions
// after a few dozen events.
func startWALServerWindow(t *testing.T, dir string, ckptEvery, window int, opts ...wal.Option) (*Server, *Client, *RecoveryInfo, *topology.FatTree) {
	t.Helper()
	log, err := wal.Open(dir, opts...)
	if err != nil {
		t.Fatalf("wal.Open(%s): %v", dir, err)
	}
	planner, scheduler, ft := buildWALWorld(t, log.Checkpoint() == nil)
	srv, rec, err := New(Config{
		Planner: planner, Scheduler: scheduler, Sim: sim.Config{InstallTime: time.Millisecond},
		WAL:        &WALConfig{Log: log, CheckpointEvery: ckptEvery},
		doneWindow: window,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

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
	return srv, client, rec, ft
}

// walChunk is one lock-step unit of workload: a batch of events waited
// to completion, then optionally a fault injected at the quiesced
// boundary. Because the state loop only rounds while the queue is
// non-empty, the engine state at every chunk boundary is a pure
// function of the chunks played so far.
type walChunk struct {
	specs []EventSpec
	fault *FaultSpec
}

// walWorkload derives a deterministic chunked workload from a seed:
// randomized multi-flow events plus link-down / link-up /
// install-timeout faults pinned to fixed chunk indices.
func walWorkload(ft *topology.FatTree, seed int64, chunks, perChunk int) []walChunk {
	rng := rand.New(rand.NewSource(seed))
	hosts := ft.Hosts()
	nLinks := ft.Graph().NumLinks()
	// One link is failed and later restored; derive it from the seed so
	// different subtests stress different parts of the fabric.
	victim := rng.Intn(nLinks)
	out := make([]walChunk, chunks)
	for c := range out {
		for e := 0; e < perChunk; e++ {
			spec := EventSpec{Kind: "recovery-test"}
			nf := 1 + rng.Intn(3)
			for f := 0; f < nf; f++ {
				src := hosts[rng.Intn(len(hosts))]
				dst := hosts[rng.Intn(len(hosts))]
				for dst == src {
					dst = hosts[rng.Intn(len(hosts))]
				}
				spec.Flows = append(spec.Flows, FlowSpec{
					Src: int(src), Dst: int(dst),
					DemandBps: int64(10+rng.Intn(90)) * 1e6,
				})
			}
			out[c].specs = append(out[c].specs, spec)
		}
		switch c {
		case 1:
			out[c].fault = &FaultSpec{Action: "install-timeout", Times: 1}
		case 2:
			out[c].fault = &FaultSpec{Action: "link-down", Link: victim}
		case 3:
			out[c].fault = &FaultSpec{Action: "link-up", Link: victim}
		}
	}
	return out
}

// crowdCore adds eight heavy inter-pod flows to ch: they crowd the core,
// so placing them migrates background traffic and Cost(U) is not zero.
func crowdCore(ft *topology.FatTree, ch *walChunk) {
	for i := 0; i < 8; i++ {
		ch.specs = append(ch.specs, EventSpec{Kind: "heavy", Flows: []FlowSpec{
			{Src: int(ft.Host(0, i%2, i/2%2)), Dst: int(ft.Host(2+i%2, i/2%2, i%2)), DemandBps: 450e6},
		}})
	}
}

// playChunk submits one chunk and waits for every admitted event —
// including any repair event a fault mints — so the server is fully
// quiesced (queue empty, everything committed) when it returns.
func playChunk(t *testing.T, client *Client, ch walChunk) {
	t.Helper()
	ids, err := client.SubmitBatchRetry(ch.specs, 5)
	if err != nil {
		t.Fatalf("SubmitBatchRetry: %v", err)
	}
	for _, id := range ids {
		if _, err := client.WaitDone(id, 15*time.Second); err != nil {
			t.Fatalf("WaitDone(%d): %v", id, err)
		}
	}
	if ch.fault != nil {
		res, err := client.Fault(*ch.fault)
		if err != nil {
			t.Fatalf("Fault(%s): %v", ch.fault.Action, err)
		}
		if res.RepairEventID != 0 {
			if _, err := client.WaitDone(res.RepairEventID, 15*time.Second); err != nil {
				t.Fatalf("WaitDone(repair %d): %v", res.RepairEventID, err)
			}
		}
	}
}

// copyDir snapshots a WAL directory into dst, byte for byte. Taken at a
// quiesced chunk boundary this is exactly the on-disk image a kill -9
// would leave behind.
func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// runDigest is everything about a run that must be identical whether or
// not the server crashed and recovered along the way.
type runDigest struct {
	Stats   Stats
	Results []EventStatus
	Snap    json.RawMessage
	Metrics map[string]any
}

// captureDigest reads the externally visible end state of a server,
// normalizing the few fields that legitimately depend on process
// history rather than admitted inputs: the deprecated probe-cache
// fields (kept zeroed so a digest compares against older captures),
// wire-codec frame counts (the recovered server saw only the suffix of
// client requests), and WAL bookkeeping that counts per-process work. WALLastSeq is deliberately kept: replay
// never re-appends, so both runs must agree on the final sequence.
func captureDigest(t *testing.T, srv *Server, client *Client) runDigest {
	t.Helper()
	st, err := client.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	st.ProbeCacheHits, st.ProbeCacheMisses, st.ProbeHitRate = 0, 0, 0
	st.ProbeColdPlans, st.ProbeIncrementalReplans = 0, 0
	st.CodecV2Conns, st.FramesV2 = 0, 0
	st.WALAppends, st.WALCheckpoints, st.WALCheckpointSeq = 0, 0, 0
	st.WALReplayed, st.WALReplayedRounds, st.WALRecoveryMs = 0, 0, 0
	// Wall-clock latency is explicitly non-deterministic and process-
	// local: a recovered server re-times only the work it redid.
	st.LatencyE2EP50Ns, st.LatencyE2EP95Ns, st.LatencyE2EP99Ns, st.LatencyE2EP999Ns = 0, 0, 0, 0
	st.LatencyQueueP50Ns, st.LatencyQueueP99Ns = 0, 0
	st.LatencyRoundsP50Ns, st.LatencyRoundsP99Ns = 0, 0
	st.SpansDropped = 0
	st.WALFsyncP50Ns, st.WALFsyncP99Ns, st.WALFsyncCount = 0, 0, 0
	// Replication state is role- and topology-local: a promoted follower
	// legitimately sits at a later term than a never-crashed leader, and
	// stream/ack counters track process history, not admitted inputs.
	st.ReplRole, st.ReplTerm = "", 0
	st.ReplFollowers, st.ReplSynced, st.ReplLagRecords = 0, 0, 0
	st.ReplRecordsSent, st.ReplRecordsApplied, st.ReplFollowerDrops = 0, 0, 0
	st.ReplFailoverMs = 0

	results, err := client.Results()
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	snap, err := client.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}

	metrics := map[string]any{}
	for k, v := range srv.Registry().Snapshot() {
		switch {
		case strings.HasPrefix(k, "netupdate_wal_"),
			strings.HasPrefix(k, "netupdate_probe_"),
			strings.HasPrefix(k, "netupdate_ingest_codec"),
			strings.HasPrefix(k, "netupdate_ingest_frames"),
			strings.HasPrefix(k, "netupdate_latency_"),
			strings.HasPrefix(k, "netupdate_repl_"),
			strings.HasPrefix(k, "obs_spans_dropped"):
			// Process-local: per-connection codec traffic, per-process
			// WAL / replication work and wall-clock latency timings do
			// not survive a crash and are not supposed to.
			continue
		}
		metrics[k] = v
	}
	return runDigest{Stats: st, Results: results, Snap: raw, Metrics: metrics}
}

func diffDigest(t *testing.T, want, got runDigest) {
	t.Helper()
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Errorf("stats diverged after recovery:\nbaseline:  %+v\nrecovered: %+v", want.Stats, got.Stats)
	}
	if !reflect.DeepEqual(want.Results, got.Results) {
		t.Errorf("results diverged after recovery: baseline %d events, recovered %d", len(want.Results), len(got.Results))
		for i := range want.Results {
			if i < len(got.Results) && !reflect.DeepEqual(want.Results[i], got.Results[i]) {
				t.Errorf("  result[%d]:\n  baseline:  %+v\n  recovered: %+v", i, want.Results[i], got.Results[i])
			}
		}
	}
	if string(want.Snap) != string(got.Snap) {
		t.Errorf("network snapshot diverged after recovery (%d vs %d bytes)", len(want.Snap), len(got.Snap))
	}
	if !reflect.DeepEqual(want.Metrics, got.Metrics) {
		for k, v := range want.Metrics {
			if gv, ok := got.Metrics[k]; !ok || !reflect.DeepEqual(v, gv) {
				t.Errorf("metric %s diverged: baseline %v, recovered %v", k, v, gv)
			}
		}
		for k := range got.Metrics {
			if _, ok := want.Metrics[k]; !ok {
				t.Errorf("metric %s only present after recovery", k)
			}
		}
	}
}

// TestCrashRecoveryConverges is the end-to-end kill/replay harness: run
// a chunked faulty workload to completion on one server (copying its
// WAL directory at a seed-chosen commit boundary), boot a second server
// from the copy, feed it the remaining chunks, and require convergence
// with the uncrashed run. Each seed runs twice: with checkpoints tight
// enough to force rotation mid-run, and with checkpoints disabled so
// recovery is a pure fold of the log over genesis.
func TestCrashRecoveryConverges(t *testing.T) {
	for _, cfg := range []struct {
		name      string
		ckptEvery int
	}{
		{"checkpointed", 6},
		{"pure-fold", -1},
	} {
		cfg := cfg
		for _, seed := range []int64{1, 2, 3} {
			seed := seed
			t.Run(cfg.name+"/seed-"+string(rune('0'+seed)), func(t *testing.T) {
				t.Parallel()
				const chunks, perChunk = 6, 4
				baseDir := filepath.Join(t.TempDir(), "wal")
				crashDir := filepath.Join(t.TempDir(), "wal-crash")
				crashAt := 1 + int(seed)%(chunks-1) // crash boundary in [1, chunks-1]

				srvA, clientA, recA, ft := startWALServer(t, baseDir, cfg.ckptEvery)
				if recA.Recovered {
					t.Fatal("fresh WAL dir reported a recovery")
				}
				work := walWorkload(ft, seed, chunks, perChunk)
				for i, ch := range work {
					playChunk(t, clientA, ch)
					if i+1 == crashAt {
						// Quiesced boundary: every ack followed its
						// commit, so the directory is a crash image.
						copyDir(t, baseDir, crashDir)
					}
				}
				// Boot from the crash image and replay the rest.
				srvB, clientB, recB, _ := startWALServer(t, crashDir, cfg.ckptEvery)
				if !recB.Recovered {
					t.Fatal("recovery from crash image reported nothing to recover")
				}
				if cfg.ckptEvery < 0 && recB.CheckpointSeq != 0 {
					t.Errorf("pure-fold run recovered from checkpoint seq %d, want 0", recB.CheckpointSeq)
				}
				for _, ch := range work[crashAt:] {
					playChunk(t, clientB, ch)
				}

				a := captureDigest(t, srvA, clientA)
				b := captureDigest(t, srvB, clientB)
				diffDigest(t, a, b)

				// The recovered trace must be a suffix of the baseline
				// trace.
				traceA, err := clientA.Trace(0)
				if err != nil {
					t.Fatalf("Trace: %v", err)
				}
				traceB, err := clientB.Trace(0)
				if err != nil {
					t.Fatalf("Trace: %v", err)
				}
				if len(traceB) == 0 || len(traceB) > len(traceA) {
					t.Fatalf("recovered trace has %d records, baseline %d", len(traceB), len(traceA))
				}
				tail := traceA[len(traceA)-len(traceB):]
				for i := range traceB {
					wantJSON, _ := json.Marshal(tail[i])
					gotJSON, _ := json.Marshal(traceB[i])
					if string(wantJSON) != string(gotJSON) {
						t.Fatalf("trace record %d/%d diverged:\nbaseline:  %s\nrecovered: %s",
							i, len(traceB), wantJSON, gotJSON)
					}
				}
			})
		}
	}
}

// TestForceCheckpointWithNothingAppended covers a checkpoint at the
// current segment's base: on a fresh server, twice in a row, and
// straight after an automatic one. It used to close the writer, fail on
// the segment file that already exists, and leave the next submit to
// panic the state loop. It must be a successful no-op: submits after it
// are acked and a crash image taken after it recovers and converges.
func TestForceCheckpointWithNothingAppended(t *testing.T) {
	const perChunk = 3
	baseDir := filepath.Join(t.TempDir(), "wal")
	crashDir := filepath.Join(t.TempDir(), "wal-crash")
	// The cadence equals the chunk size, so an automatic checkpoint
	// lands on the sequence the forced ones below ask for again.
	srvA, clientA, _, ft := startWALServer(t, baseDir, perChunk)
	forceTwice := func() {
		t.Helper()
		for i := 0; i < 2; i++ {
			if err := srvA.ForceCheckpoint(); err != nil {
				t.Fatalf("ForceCheckpoint #%d: %v", i+1, err)
			}
		}
	}
	forceTwice() // fresh log, seq 0
	work := walWorkload(ft, 7, 2, perChunk)
	playChunk(t, clientA, work[0])
	st, err := clientA.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.WALLastSeq != perChunk || st.WALCheckpointSeq != st.WALLastSeq {
		t.Fatalf("after chunk 0: last seq %d, checkpoint seq %d; want an automatic checkpoint at %d",
			st.WALLastSeq, st.WALCheckpointSeq, perChunk)
	}
	forceTwice() // straight after the automatic checkpoint
	copyDir(t, baseDir, crashDir)
	playChunk(t, clientA, work[1])

	srvB, clientB, recB, _ := startWALServer(t, crashDir, perChunk)
	if !recB.Recovered || recB.CheckpointSeq != perChunk || recB.ReplayedRecords != 0 {
		t.Fatalf("recovery = %+v, want the checkpoint at seq %d and an empty suffix", recB, perChunk)
	}
	playChunk(t, clientB, work[1])
	diffDigest(t, captureDigest(t, srvA, clientA), captureDigest(t, srvB, clientB))
}

// archivedCheckpoint is one checkpoint archived by wal.WithKeepSegments.
type archivedCheckpoint struct {
	seq  int64
	data []byte
}

// readArchivedCheckpoints collects the checkpoint-<seq>.json archives a
// keep-segments run leaves behind, oldest first.
func readArchivedCheckpoints(t *testing.T, dir string) []archivedCheckpoint {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []archivedCheckpoint
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		seq, err := strconv.ParseInt(name[len("checkpoint-"):len(name)-len(".json")], 16, 64)
		if err != nil {
			t.Fatalf("unparsable checkpoint archive %s: %v", name, err)
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, archivedCheckpoint{seq: seq, data: data})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// buildPrefixDir reconstructs the WAL directory exactly as a crash after
// record seq p would have left it: every segment truncated at p's frame
// boundary, and optionally a checkpoint file. hist must have been opened
// with WithKeepSegments so the full segment chain is present.
func buildPrefixDir(t *testing.T, hist *wal.Log, dst string, p int64, ckpt []byte) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, seg := range hist.Segments() {
		if seg.Base >= p {
			continue
		}
		data, err := os.ReadFile(seg.Path)
		if err != nil {
			t.Fatal(err)
		}
		if seg.LastSeq > p {
			// FrameEnds[0] closes the meta frame; FrameEnds[k] closes the
			// record with seq Base+k.
			data = data[:seg.FrameEnds[p-seg.Base]]
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(seg.Path)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if ckpt != nil {
		if err := os.WriteFile(filepath.Join(dst, "checkpoint.json"), ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryFoldEquivalenceAtEveryPrefix is the property test behind
// the recovery design: a crash can land after ANY committed record, and
// for every such prefix the recovered state must be the same whether it
// is rebuilt by folding the whole prefix over genesis or by restoring
// the newest covered checkpoint and replaying only the suffix. A
// keep-segments run supplies the full history plus archived checkpoints;
// each subtest reconstructs one crash image from them.
func TestRecoveryFoldEquivalenceAtEveryPrefix(t *testing.T) {
	baseDir := filepath.Join(t.TempDir(), "wal")
	_, clientA, _, ft := startWALServer(t, baseDir, 5, wal.WithKeepSegments())
	for _, ch := range walWorkload(ft, 4, 4, 3) {
		playChunk(t, clientA, ch)
	}
	// Quiesced: every record is committed, nothing in flight. Copy the
	// full history aside so the live server cannot touch it.
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
	if len(archives) == 0 {
		t.Fatal("keep-segments run archived no checkpoints")
	}

	for p := int64(1); p <= lastSeq; p++ {
		p := p
		t.Run(fmt.Sprintf("prefix-%02d", p), func(t *testing.T) {
			t.Parallel()
			foldDir := filepath.Join(t.TempDir(), "fold")
			buildPrefixDir(t, hist, foldDir, p, nil)
			srvF, clientF, recF, _ := startWALServer(t, foldDir, -1)
			if !recF.Recovered {
				t.Fatal("fold recovery reported nothing to recover")
			}
			if recF.LastSeq != p {
				t.Fatalf("fold recovery saw last seq %d, want %d", recF.LastSeq, p)
			}
			if recF.ReplayedRecords+recF.ReplayedRounds != int(p) {
				t.Errorf("fold recovery replayed %d records and %d rounds, want %d", recF.ReplayedRecords, recF.ReplayedRounds, p)
			}
			df := captureDigest(t, srvF, clientF)
			if df.Stats.WALLastSeq != p {
				t.Errorf("fold server at seq %d, want %d", df.Stats.WALLastSeq, p)
			}

			// The newest checkpoint covering this prefix, if any, must
			// recover to the identical state from far less replay.
			var best *archivedCheckpoint
			for i := range archives {
				if archives[i].seq <= p {
					best = &archives[i]
				}
			}
			if best == nil {
				return
			}
			ckptDir := filepath.Join(t.TempDir(), "ckpt")
			buildPrefixDir(t, hist, ckptDir, p, best.data)
			srvC, clientC, recC, _ := startWALServer(t, ckptDir, -1)
			if recC.CheckpointSeq != best.seq {
				t.Errorf("checkpoint recovery started from seq %d, want %d", recC.CheckpointSeq, best.seq)
			}
			if recC.ReplayedRecords+recC.ReplayedRounds != int(p-best.seq) {
				t.Errorf("checkpoint recovery replayed %d records and %d rounds, want %d", recC.ReplayedRecords, recC.ReplayedRounds, p-best.seq)
			}
			dc := captureDigest(t, srvC, clientC)
			diffDigest(t, df, dc)
		})
	}
}

// TestRecoveryRejectsMismatchedWorld proves the meta guard: a log
// written under one scheduler must refuse to fold into a server running
// another, before any record is replayed.
func TestRecoveryRejectsMismatchedWorld(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	_, clientA, _, ft := startWALServer(t, dir, -1)
	playChunk(t, clientA, walWorkload(ft, 9, 1, 2)[0])
	image := filepath.Join(t.TempDir(), "image")
	copyDir(t, dir, image)

	log, err := wal.Open(image)
	if err != nil {
		t.Fatal(err)
	}
	planner, _, _ := buildWALWorld(t, true)
	srv, _, err := New(Config{Planner: planner, Scheduler: sched.FIFO{}, WAL: &WALConfig{Log: log}})
	if err == nil {
		srv.Close()
		t.Fatal("a p-lmtf log recovered into a fifo server")
	}
	if !strings.Contains(err.Error(), "p-lmtf") || !strings.Contains(err.Error(), "fifo") {
		t.Errorf("mismatch error %q does not name both schedulers", err)
	}
}

// TestRecoveryLoadsCheckpointWithForkCounters: a checkpoint written by an
// older build — its probe baseline split into cache "hits" and "misses"
// beside "cold", "incremental", "journal_misses", "forks" and "resyncs"
// counts, and a "probe_dirty_links" histogram among the metrics — must
// restore to the same state, probe total included, as the same workload
// run uncrashed.
func TestRecoveryLoadsCheckpointWithForkCounters(t *testing.T) {
	want, _ := runLegacyWorkload(t)
	probe := regexp.MustCompile(`"probe":\{"probes":(\d+),`)
	image := copyLegacyImage(t, func(ckpt string) string {
		m := probe.FindStringSubmatch(ckpt)
		if m == nil || len(probe.FindAllString(ckpt, -1)) != 1 {
			t.Fatalf("checkpoint has no single %v object", probe)
		}
		probes, err := strconv.Atoi(m[1])
		if err != nil || probes < 2 {
			t.Fatalf("checkpointed probe total %q, want at least 2 to split", m[1])
		}
		old := probe.ReplaceAllString(ckpt, fmt.Sprintf(
			`"probe":{"hits":2,"misses":%d,"cold":%d,"incremental":0,"journal_misses":1,"forks":3,"resyncs":17,`,
			probes-2, probes-2))
		const ect = `"ect":{`
		if n := strings.Count(old, ect); n != 1 {
			t.Fatalf("checkpoint has %d %s objects, want 1", n, ect)
		}
		return strings.Replace(old, ect, `"probe_dirty_links":{"counts":[0,1],"sum":2,"count":1},`+ect, 1)
	})

	srvB, clientB, rec, _ := startWALServer(t, image, -1)
	if !rec.Recovered || rec.CheckpointSeq == 0 {
		t.Fatalf("recovery = %+v, want a restore from the checkpoint", *rec)
	}
	diffDigest(t, want, captureDigest(t, srvB, clientB))
}
