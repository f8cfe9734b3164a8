package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/topology"
)

// TestCrashRecoverySIGKILL is the out-of-process half of the recovery
// harness: it builds the real daemon binary, runs it with a WAL, kills
// it with SIGKILL mid-soak, restarts it on the same directory, finishes
// the workload, and requires the result to converge with an identical
// daemon that never crashed — same stats, results, snapshot, /metrics
// counters and trace suffix.
func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "updated")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	work := crashWorkload(ft, 11, 6, 3)
	const killAfter = 3 // chunks played before SIGKILL

	// Reference daemon: same flags, own WAL directory, never killed.
	refDir := filepath.Join(t.TempDir(), "wal-ref")
	refProc, refClient, _ := startDaemonProc(t, bin, refDir)
	defer stopDaemonProc(t, refProc)
	for _, ch := range work {
		playCrashChunk(t, refClient, ch)
	}

	// Victim daemon: play a prefix, then kill -9 at a quiesced boundary
	// (every submission acked, queue drained) so the exact committed
	// history is known.
	walDir := filepath.Join(t.TempDir(), "wal")
	victim, victimClient, _ := startDaemonProc(t, bin, walDir)
	for _, ch := range work[:killAfter] {
		playCrashChunk(t, victimClient, ch)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	_ = victim.Wait()
	victimClient.Close()

	// Restart on the same WAL directory and finish the workload.
	revived, revivedClient, startup := startDaemonProc(t, bin, walDir)
	defer stopDaemonProc(t, revived)
	recovered := false
	for _, line := range startup {
		if strings.HasPrefix(line, "updated: recovered from WAL:") {
			recovered = true
		}
	}
	if !recovered {
		t.Fatalf("restarted daemon never reported a recovery; startup:\n%s", strings.Join(startup, "\n"))
	}
	for _, ch := range work[killAfter:] {
		playCrashChunk(t, revivedClient, ch)
	}

	compareDaemons(t, refClient, revivedClient)
}

// startDaemonProc launches the built daemon with a WAL directory and
// returns a connected client plus the captured startup lines. Extra
// flags (e.g. -follow for a warm follower) are appended to the shared
// world flags, which every replica of one deterministic world must use.
func startDaemonProc(t *testing.T, bin, walDir string, extra ...string) (*exec.Cmd, *ctl.Client, []string) {
	t.Helper()
	args := []string{
		"-addr", "127.0.0.1:0",
		"-k", "4",
		"-util", "0.3",
		"-scheduler", "p-lmtf",
		"-seed", "1",
		"-telemetry-addr", "127.0.0.1:0",
		"-wal-dir", walDir,
		"-wal-sync", "group",
		"-wal-checkpoint-every", "8",
	}
	cmd := exec.Command(bin, append(args, extra...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})

	var addr, metricsURL string
	var startup []string
	scanner := bufio.NewScanner(stdout)
	for scanner.Scan() {
		line := scanner.Text()
		startup = append(startup, line)
		if s, ok := strings.CutPrefix(line, "updated: telemetry on "); ok {
			metricsURL = s
		}
		if s, ok := strings.CutPrefix(line, "updated: listening on "); ok {
			addr = s
			break
		}
	}
	if addr == "" || metricsURL == "" {
		t.Fatalf("daemon never reported its addresses; startup:\n%s", strings.Join(startup, "\n"))
	}
	go func() { _, _ = io.Copy(io.Discard, stdout) }()

	client, err := ctl.DialBinary(addr)
	if err != nil {
		t.Fatalf("dial daemon: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	// Stash the metrics URL on the client's behalf via a map keyed by
	// client; simpler: remember it globally per test through closure.
	daemonMetricsURL[client] = metricsURL
	return cmd, client, startup
}

// daemonMetricsURL maps each test client to its daemon's /metrics URL.
var daemonMetricsURL = map[*ctl.Client]string{}

func stopDaemonProc(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if cmd.ProcessState != nil {
		return
	}
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
}

// crashChunk mirrors the in-process recovery workload: a batch of
// events waited to completion, then an optional fault at the quiesced
// boundary.
type crashChunk struct {
	specs []ctl.EventSpec
	fault *ctl.FaultSpec
}

func crashWorkload(ft *topology.FatTree, seed int64, chunks, perChunk int) []crashChunk {
	rng := rand.New(rand.NewSource(seed))
	hosts := ft.Hosts()
	victimLink := rng.Intn(ft.Graph().NumLinks())
	out := make([]crashChunk, chunks)
	for c := range out {
		for e := 0; e < perChunk; e++ {
			spec := ctl.EventSpec{Kind: "sigkill-test"}
			nf := 1 + rng.Intn(3)
			for f := 0; f < nf; f++ {
				src := hosts[rng.Intn(len(hosts))]
				dst := hosts[rng.Intn(len(hosts))]
				for dst == src {
					dst = hosts[rng.Intn(len(hosts))]
				}
				spec.Flows = append(spec.Flows, ctl.FlowSpec{
					Src: int(src), Dst: int(dst),
					DemandBps: int64(10+rng.Intn(90)) * 1e6,
				})
			}
			out[c].specs = append(out[c].specs, spec)
		}
		switch c {
		case 1:
			out[c].fault = &ctl.FaultSpec{Action: "install-timeout", Times: 1}
		case 2:
			out[c].fault = &ctl.FaultSpec{Action: "link-down", Link: victimLink}
		case 4:
			out[c].fault = &ctl.FaultSpec{Action: "link-up", Link: victimLink}
		}
	}
	return out
}

func playCrashChunk(t *testing.T, client *ctl.Client, ch crashChunk) {
	t.Helper()
	ids, err := client.SubmitBatchRetry(ch.specs, 5)
	if err != nil {
		t.Fatalf("SubmitBatchRetry: %v", err)
	}
	for _, id := range ids {
		if _, err := client.WaitDone(id, 20*time.Second); err != nil {
			t.Fatalf("WaitDone(%d): %v", id, err)
		}
	}
	if ch.fault != nil {
		res, err := client.Fault(*ch.fault)
		if err != nil {
			t.Fatalf("Fault(%s): %v", ch.fault.Action, err)
		}
		if res.RepairEventID != 0 {
			if _, err := client.WaitDone(res.RepairEventID, 20*time.Second); err != nil {
				t.Fatalf("WaitDone(repair %d): %v", res.RepairEventID, err)
			}
		}
	}
}

// compareDaemons requires the recovered daemon to have converged with
// the never-crashed reference across every externally visible surface.
func compareDaemons(t *testing.T, ref, got *ctl.Client) {
	t.Helper()
	refStats := normalizedStats(t, ref)
	gotStats := normalizedStats(t, got)
	if !reflect.DeepEqual(refStats, gotStats) {
		t.Errorf("stats diverged:\nreference: %+v\nrecovered: %+v", refStats, gotStats)
	}

	refResults, err := ref.Results()
	if err != nil {
		t.Fatal(err)
	}
	gotResults, err := got.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refResults, gotResults) {
		t.Errorf("results diverged: reference %d events, recovered %d", len(refResults), len(gotResults))
	}

	refSnap, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	gotSnap, err := got.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.Marshal(refSnap)
	gotJSON, _ := json.Marshal(gotSnap)
	if string(refJSON) != string(gotJSON) {
		t.Errorf("network snapshots diverged (%d vs %d bytes)", len(refJSON), len(gotJSON))
	}

	// Deterministic /metrics counters must match line for line.
	refMetrics := scrapeMetrics(t, daemonMetricsURL[ref])
	gotMetrics := scrapeMetrics(t, daemonMetricsURL[got])
	for name, v := range refMetrics {
		if gv, ok := gotMetrics[name]; !ok || gv != v {
			t.Errorf("metric %s: reference %q, recovered %q", name, v, gv)
		}
	}
	for name := range gotMetrics {
		if _, ok := refMetrics[name]; !ok {
			t.Errorf("metric %s only reported by the recovered daemon", name)
		}
	}

	// The recovered trace must be a suffix of the reference trace.
	refTrace, err := ref.Trace(0)
	if err != nil {
		t.Fatal(err)
	}
	gotTrace, err := got.Trace(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotTrace) == 0 || len(gotTrace) > len(refTrace) {
		t.Fatalf("recovered trace has %d records, reference %d", len(gotTrace), len(refTrace))
	}
	tail := refTrace[len(refTrace)-len(gotTrace):]
	for i := range gotTrace {
		want, _ := json.Marshal(tail[i])
		gotRec, _ := json.Marshal(gotTrace[i])
		if string(want) != string(gotRec) {
			t.Fatalf("trace record %d/%d diverged:\nreference: %s\nrecovered: %s", i, len(gotTrace), want, gotRec)
		}
	}
}

func normalizedStats(t *testing.T, client *ctl.Client) ctl.Stats {
	t.Helper()
	st, err := client.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	st.ProbeCacheHits, st.ProbeCacheMisses, st.ProbeHitRate = 0, 0, 0
	st.ProbeColdPlans, st.ProbeIncrementalReplans = 0, 0
	st.CodecV2Conns, st.FramesV2 = 0, 0
	st.WALAppends, st.WALCheckpoints, st.WALCheckpointSeq = 0, 0, 0
	st.WALReplayed, st.WALRecoveryMs = 0, 0
	// Wall-clock latency is process-local: the recovered daemon re-times
	// only replayed work, so these never match across processes.
	st.LatencyE2EP50Ns, st.LatencyE2EP95Ns, st.LatencyE2EP99Ns, st.LatencyE2EP999Ns = 0, 0, 0, 0
	st.LatencyQueueP50Ns, st.LatencyQueueP99Ns = 0, 0
	st.LatencyRoundsP50Ns, st.LatencyRoundsP99Ns = 0, 0
	st.SpansDropped = 0
	st.WALFsyncP50Ns, st.WALFsyncP99Ns, st.WALFsyncCount = 0, 0, 0
	// Replication state is process history, not folded state: a promoted
	// follower reports a later term and apply counters the reference
	// leader never accrues.
	st.ReplRole, st.ReplTerm = "", 0
	st.ReplFollowers, st.ReplSynced, st.ReplLagRecords = 0, 0, 0
	st.ReplRecordsSent, st.ReplRecordsApplied, st.ReplFollowerDrops = 0, 0, 0
	st.ReplFailoverMs = 0
	return st
}

// scrapeMetrics fetches /metrics and keeps the deterministic counters:
// everything under netupdate_ except WAL bookkeeping, the probe series
// and per-connection codec traffic.
func scrapeMetrics(t *testing.T, url string) map[string]string {
	t.Helper()
	// The daemon prints the full URL ("updated: telemetry on http://...").
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "netupdate_") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "netupdate_wal_"),
			strings.HasPrefix(line, "netupdate_probe_"),
			strings.HasPrefix(line, "netupdate_ingest_codec"),
			strings.HasPrefix(line, "netupdate_ingest_frames"),
			// Replication role/term/stream counters are process history
			// (see normalizedStats).
			strings.HasPrefix(line, "netupdate_repl_"),
			// Wall-clock latency histograms: process-local, like the
			// fsync timings above.
			strings.HasPrefix(line, "netupdate_latency_"):
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		out[name] = value
	}
	return out
}
