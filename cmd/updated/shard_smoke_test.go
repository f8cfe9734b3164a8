package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/topology"
)

// bootDaemon starts run() with args on a pipe, parses the printed
// addresses, and returns (ctl addr, telemetry URL, stop chan, done
// chan). The pipe keeps draining after the addresses are seen.
func bootDaemon(t *testing.T, args []string) (string, string, chan os.Signal, chan int) {
	t.Helper()
	_, addr, telemetryURL, stop, done := bootDaemonLines(t, args)
	return addr, telemetryURL, stop, done
}

// bootDaemonLines is bootDaemon that also returns everything the daemon
// printed up to and including its listening line.
func bootDaemonLines(t *testing.T, args []string) ([]string, string, string, chan os.Signal, chan int) {
	t.Helper()
	pr, pw := io.Pipe()
	stop := make(chan os.Signal, 1)
	done := make(chan int, 1)
	go func() {
		code := run(args, pw, stop)
		_ = pw.Close()
		done <- code
	}()

	var addr, telemetryURL string
	var startup []string
	scanner := bufio.NewScanner(pr)
	for scanner.Scan() {
		line := scanner.Text()
		startup = append(startup, line)
		if s, ok := strings.CutPrefix(line, "updated: telemetry on "); ok {
			telemetryURL = s
		}
		if s, ok := strings.CutPrefix(line, "updated: listening on "); ok {
			addr = s
			break
		}
	}
	if addr == "" {
		t.Fatalf("daemon never reported its address; startup output:\n%s", strings.Join(startup, "\n"))
	}
	go func() { _, _ = io.Copy(io.Discard, pr) }()
	return startup, addr, telemetryURL, stop, done
}

func shutdownDaemon(t *testing.T, stop chan os.Signal, done chan int) {
	t.Helper()
	stop <- os.Interrupt
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("daemon exit = %d, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down within 10s")
	}
}

// TestDaemonShardedSmoke boots the daemon in -shards 2 mode, submits
// intra- and cross-pod events through an ordinary binary client, checks
// the aggregated stats and per-shard telemetry endpoints, and shuts
// down cleanly.
func TestDaemonShardedSmoke(t *testing.T) {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-k", "4",
		"-util", "0.2",
		"-scheduler", "p-lmtf",
		"-shards", "2",
		"-telemetry-addr", "127.0.0.1:0",
		"-wal-dir", t.TempDir(),
		"-wal-checkpoint-every", "2",
	}
	startup, addr, telemetryURL, stop, done := bootDaemonLines(t, args)
	// A fresh sharded daemon says what each engine filled.
	for _, want := range []string{"updated: shard 1: background ", "updated: shard 2: background "} {
		if !hasLinePrefix(startup, want) {
			t.Errorf("first boot printed no %q line:\n%s", want, strings.Join(startup, "\n"))
		}
	}
	if telemetryURL == "" {
		t.Fatal("daemon never reported its telemetry address")
	}

	client, err := ctl.DialBinary(addr)
	if err != nil {
		t.Fatalf("dial gateway: %v", err)
	}
	defer client.Close()
	feats, err := client.Features()
	if err != nil {
		t.Fatal(err)
	}
	hasShard := false
	for _, f := range feats {
		if f == ctl.FeatureShardVerdicts {
			hasShard = true
		}
	}
	if !hasShard {
		t.Fatalf("gateway features = %v, want %s", feats, ctl.FeatureShardVerdicts)
	}
	client.EnableShardInfo()

	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	// One event per pod (pods 0,1 → shard 1; pods 2,3 → shard 2) plus a
	// cross-pod event spanning both shards.
	specs := make([]ctl.EventSpec, 0, 5)
	for pod := 0; pod < 4; pod++ {
		specs = append(specs, ctl.EventSpec{Kind: "smoke", Flows: []ctl.FlowSpec{
			{Src: int(ft.Host(pod, 0, 0)), Dst: int(ft.Host(pod, 0, 1)), DemandBps: 1e6, SizeBytes: 1e4},
		}})
	}
	specs = append(specs, ctl.EventSpec{Kind: "smoke-cross", Flows: []ctl.FlowSpec{
		{Src: int(ft.Host(0, 0, 0)), Dst: int(ft.Host(3, 0, 0)), DemandBps: 1e6, SizeBytes: 1e4},
	}})
	verdicts, _, err := client.SubmitBatch(specs)
	if err != nil {
		t.Fatalf("submit batch: %v", err)
	}
	wantShards := []int{1, 1, 2, 2, 1} // cross event homes on its lowest touched shard
	for i, v := range verdicts {
		if !v.OK {
			t.Fatalf("verdict %d rejected: %s", i, v.Error)
		}
		if v.Shard != wantShards[i] {
			t.Errorf("event %d routed to shard %d, want %d", i, v.Shard, wantShards[i])
		}
		if ((v.EventID-1)%2)+1 != int64(v.Shard) {
			t.Errorf("event %d ID %d off the shard-%d lattice", i, v.EventID, v.Shard)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := client.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.EventsDone >= 5 {
			if st.Shards != 2 || st.ShardID != 0 {
				t.Errorf("aggregated stats shards/id = %d/%d, want 2/0", st.Shards, st.ShardID)
			}
			if st.CrossEvents != 1 || st.CrossRejected != 0 {
				t.Errorf("cross events/rejected = %d/%d, want 1/0", st.CrossEvents, st.CrossRejected)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("events not done within 10s: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Gateway registry on /metrics, engine registries on /metrics/shard/<id>.
	scrape := func(url string) string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("scrape %s: %v", url, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape %s: status %d, err %v", url, resp.StatusCode, err)
		}
		return string(body)
	}
	if body := scrape(telemetryURL); !strings.Contains(body, "netupdate_gateway_routed_events_total 5") {
		t.Errorf("gateway /metrics missing routed counter; body:\n%.500s", body)
	}
	base := strings.TrimSuffix(telemetryURL, "/metrics")
	doneSum := 0
	for shardID := 1; shardID <= 2; shardID++ {
		body := scrape(base + "/metrics/shard/" + string(rune('0'+shardID)))
		if !strings.Contains(body, "netupdate_ingest_accepted_total") {
			t.Errorf("shard %d /metrics missing engine counters; body:\n%.300s", shardID, body)
		}
		for _, line := range strings.Split(body, "\n") {
			if n, ok := strings.CutPrefix(line, "netupdate_events_done_total "); ok {
				v, err := strconv.Atoi(n)
				if err != nil {
					t.Fatalf("shard %d: %q: %v", shardID, line, err)
				}
				doneSum += v
			}
		}
	}
	// The cluster's count is the shards' counts added up.
	if st, err := client.Stats(); err != nil || st.EventsDone != doneSum {
		t.Errorf("cluster events_done = %d (err %v), shards' /metrics sum to %d", st.EventsDone, err, doneSum)
	}

	shutdownDaemon(t, stop, done)

	// Restarted on the same -wal-dir it says what each engine recovered:
	// shard 1 logged three events and shard 2 two, and at a checkpoint
	// every two records each holds one, which restores the flows instead
	// of the fill.
	startup, _, _, stop, done = bootDaemonLines(t, args)
	for shardID, lastSeq := range map[string]string{"1": "3", "2": "2"} {
		pre := "updated: shard " + shardID + ": "
		if !hasLinePrefix(startup, pre+"background fill skipped, restoring from checkpoint") {
			t.Errorf("restart: shard %s printed no fill-skipped line:\n%s", shardID, strings.Join(startup, "\n"))
		}
		recovered := false
		for _, l := range startup {
			if strings.HasPrefix(l, pre+"recovered from WAL: checkpoint seq ") && strings.Contains(l, " records replayed, last seq "+lastSeq+" (") {
				recovered = true
			}
		}
		if !recovered {
			t.Errorf("restart: shard %s printed no recovery line ending at seq %s:\n%s", shardID, lastSeq, strings.Join(startup, "\n"))
		}
	}
	shutdownDaemon(t, stop, done)
}

func hasLinePrefix(lines []string, prefix string) bool {
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			return true
		}
	}
	return false
}

// TestDaemonRemoteGateway boots two engine daemons and one -shard-addrs
// gateway fronting them, and drives a batch through the gateway.
func TestDaemonRemoteGateway(t *testing.T) {
	engineArgs := func() []string {
		return []string{
			"-addr", "127.0.0.1:0", "-k", "4", "-util", "0", "-scheduler", "fifo",
		}
	}
	addr1, _, stop1, done1 := bootDaemon(t, engineArgs())
	defer shutdownDaemon(t, stop1, done1)
	addr2, _, stop2, done2 := bootDaemon(t, engineArgs())
	defer shutdownDaemon(t, stop2, done2)

	gwAddr, _, stopGW, doneGW := bootDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-k", "4",
		"-shard-addrs", addr1 + "," + addr2,
	})

	client, err := ctl.DialBinary(gwAddr)
	if err != nil {
		t.Fatalf("dial gateway: %v", err)
	}
	defer client.Close()
	client.EnableShardInfo()

	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	verdicts, _, err := client.SubmitBatch([]ctl.EventSpec{
		{Kind: "remote", Flows: []ctl.FlowSpec{{Src: int(ft.Host(1, 0, 0)), Dst: int(ft.Host(1, 0, 1)), DemandBps: 1e6, SizeBytes: 1e4}}},
		{Kind: "remote", Flows: []ctl.FlowSpec{{Src: int(ft.Host(3, 0, 0)), Dst: int(ft.Host(3, 0, 1)), DemandBps: 1e6, SizeBytes: 1e4}}},
	})
	if err != nil {
		t.Fatalf("submit batch: %v", err)
	}
	for i, want := range []int{1, 2} {
		if !verdicts[i].OK || verdicts[i].Shard != want {
			t.Errorf("verdict %d = %+v, want OK on shard %d", i, verdicts[i], want)
		}
	}
	// The remote engines were not booted with shard identities, so their
	// IDs both start at 1; the gateway stamps routing shards regardless.
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 {
		t.Errorf("aggregated stats shards = %d, want 2", st.Shards)
	}

	shutdownDaemon(t, stopGW, doneGW)
}

// TestDaemonRemoteGatewayStridedEngines boots two engines as explicit
// partition slots (-shard-id/-shard-of) behind a gateway, and checks
// what identity-less engines cannot give: strided globally-unique
// event IDs and cross-shard status routing through the gateway.
func TestDaemonRemoteGatewayStridedEngines(t *testing.T) {
	slotArgs := func(id int) []string {
		return []string{
			"-addr", "127.0.0.1:0", "-k", "4", "-util", "0", "-scheduler", "fifo",
			"-shard-id", string(rune('0' + id)), "-shard-of", "2",
		}
	}
	addr1, _, stop1, done1 := bootDaemon(t, slotArgs(1))
	defer shutdownDaemon(t, stop1, done1)
	addr2, _, stop2, done2 := bootDaemon(t, slotArgs(2))
	defer shutdownDaemon(t, stop2, done2)

	// Wiring slot 2's engine as the first address must be refused at
	// boot: the gateway probes each engine's declared identity.
	if code := run([]string{"-addr", "127.0.0.1:0", "-k", "4",
		"-shard-addrs", addr2 + "," + addr1}, io.Discard, make(chan os.Signal)); code != 1 {
		t.Fatalf("swapped shard-addrs: run = %d, want 1", code)
	}

	gwAddr, _, stopGW, doneGW := bootDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-k", "4",
		"-shard-addrs", addr1 + "," + addr2,
	})
	defer shutdownDaemon(t, stopGW, doneGW)

	client, err := ctl.DialBinary(gwAddr)
	if err != nil {
		t.Fatalf("dial gateway: %v", err)
	}
	defer client.Close()
	client.EnableShardInfo()

	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	flow := func(pod int) []ctl.FlowSpec {
		return []ctl.FlowSpec{{Src: int(ft.Host(pod, 0, 0)), Dst: int(ft.Host(pod, 0, 1)), DemandBps: 1e6, SizeBytes: 1e4}}
	}
	verdicts, _, err := client.SubmitBatch([]ctl.EventSpec{
		{Kind: "strided", Flows: flow(0)}, // shard 1
		{Kind: "strided", Flows: flow(2)}, // shard 2
		{Kind: "strided", Flows: flow(1)}, // shard 1
		{Kind: "strided", Flows: flow(3)}, // shard 2
	})
	if err != nil {
		t.Fatalf("submit batch: %v", err)
	}
	wantIDs := []int64{1, 2, 3, 4} // slot s mints s, s+2, ...
	wantShards := []int{1, 2, 1, 2}
	for i, v := range verdicts {
		if !v.OK || v.EventID != wantIDs[i] || v.Shard != wantShards[i] {
			t.Errorf("verdict %d = %+v, want OK id %d on shard %d", i, v, wantIDs[i], wantShards[i])
		}
		// The stride is the routing table: every ID must resolve
		// through the gateway, whichever engine minted it.
		if _, err := client.Status(v.EventID); err != nil {
			t.Errorf("status %d through gateway: %v", v.EventID, err)
		}
	}
}

// TestDaemonRemoteGatewayRefusesOldEngine: an engine that predates the
// metrics op is refused when the gateway boots, with an error naming the
// op, instead of failing the gateway's first stats read.
func TestDaemonRemoteGatewayRefusesOldEngine(t *testing.T) {
	old := &ctl.WireServer{Handle: func(req ctl.Request, _ int64) ctl.Response {
		switch req.Op {
		case ctl.OpPing:
			return ctl.Response{OK: true}
		case ctl.OpStats:
			return ctl.Response{OK: true, Stats: &ctl.Stats{Scheduler: "fifo"}}
		}
		// What a build without the op answers: unknown at parse time.
		return ctl.Response{OK: false, Error: fmt.Sprintf("%v: unknown op %q", ctl.ErrBadRequest, req.Op)}
	}}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = old.Serve(l) }()
	defer old.Close()

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	code := run([]string{"-addr", "127.0.0.1:0", "-k", "4", "-shard-addrs", l.Addr().String()}, io.Discard, make(chan os.Signal))
	os.Stderr = stderr
	w.Close()
	msg, _ := io.ReadAll(r)
	if code != 1 {
		t.Fatalf("gateway over an old engine: run = %d, want 1", code)
	}
	if !strings.Contains(string(msg), `op "metrics"`) {
		t.Errorf("refusal does not name the op:\n%s", msg)
	}
}

// TestDaemonShardedFlagConflicts: follower, span, and rule-table modes
// are engine-only.
func TestDaemonShardedFlagConflicts(t *testing.T) {
	stop := make(chan os.Signal)
	for _, args := range [][]string{
		{"-shards", "2", "-follow", "x:1", "-wal-dir", t.TempDir()},
		{"-shards", "2", "-span-out", "/tmp/x.jsonl"},
		{"-shards", "2", "-tables", "128"},
		{"-shard-addrs", "x:1,y:2", "-span-out", "/tmp/x.jsonl"},
	} {
		if code := run(args, io.Discard, stop); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
