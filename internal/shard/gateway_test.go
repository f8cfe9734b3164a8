package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/topology"
)

// testCluster builds an in-process 2-shard cluster plus gateway over a
// k=4 fat-tree (pods {0,1} on shard 1, {2,3} on shard 2), torn down by
// t.Cleanup.
func testCluster(t *testing.T, shards int) (*Gateway, *Cluster, *topology.FatTree) {
	t.Helper()
	cfg := WorldConfig{K: 4, Util: 0.2, Scheduler: "p-lmtf", Alpha: 4, Seed: 1, Watermark: 1024, Shards: shards}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := cl.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	})
	ref, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := NewGateway(cl.Part, ref.Graph(), cl.Cross, cl.Backends())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := gw.Close(); err != nil {
			t.Errorf("gateway close: %v", err)
		}
	})
	return gw, cl, ref
}

// intraPodSpec builds one event with a single flow inside the given pod.
func intraPodSpec(ft *topology.FatTree, pod int) ctl.EventSpec {
	return ctl.EventSpec{Kind: "test", Flows: []ctl.FlowSpec{{
		Src:       int(ft.Host(pod, 0, 0)),
		Dst:       int(ft.Host(pod, 1, 0)),
		DemandBps: 1e6,
		SizeBytes: 1e4,
	}}}
}

// crossPodSpec builds one event spanning two pods.
func crossPodSpec(ft *topology.FatTree, podA, podB int) ctl.EventSpec {
	return ctl.EventSpec{Kind: "test", Flows: []ctl.FlowSpec{{
		Src:       int(ft.Host(podA, 0, 0)),
		Dst:       int(ft.Host(podB, 0, 0)),
		DemandBps: 1e6,
		SizeBytes: 1e4,
	}}}
}

func TestGatewayRoutesByPod(t *testing.T) {
	gw, _, ft := testCluster(t, 2)
	resp := gw.Handle(ctl.Request{Op: ctl.OpSubmitBatch, Events: []ctl.EventSpec{
		intraPodSpec(ft, 0), // pods {0,1} -> shard 1
		intraPodSpec(ft, 3), // pods {2,3} -> shard 2
		intraPodSpec(ft, 1),
		intraPodSpec(ft, 2),
	}}, time.Now().UnixNano())
	if !resp.OK {
		t.Fatalf("submit: %s", resp.Error)
	}
	wantShard := []int{1, 2, 1, 2}
	for i, v := range resp.Verdicts {
		if !v.OK {
			t.Fatalf("verdict %d: %s", i, v.Error)
		}
		if v.Shard != wantShard[i] {
			t.Errorf("verdict %d routed to shard %d, want %d", i, v.Shard, wantShard[i])
		}
		// Shard s of N mints IDs on the lattice s, s+N, s+2N, ...
		if got := int((v.EventID-1)%2) + 1; got != v.Shard {
			t.Errorf("verdict %d: event ID %d off shard %d's lattice", i, v.EventID, v.Shard)
		}
	}

	// Status routes back through the lattice to the shard that knows
	// the event.
	for i, v := range resp.Verdicts {
		st := gw.Handle(ctl.Request{Op: ctl.OpStatus, EventID: v.EventID}, time.Now().UnixNano())
		if !st.OK || st.Status == nil {
			t.Fatalf("status %d: %+v", i, st)
		}
		if st.Status.State == ctl.StateUnknown {
			t.Errorf("event %d unknown through the gateway", v.EventID)
		}
	}
}

func TestGatewayCrossShardAdmission(t *testing.T) {
	gw, cl, ft := testCluster(t, 2)
	resp := gw.Handle(ctl.Request{Op: ctl.OpSubmitBatch, Events: []ctl.EventSpec{
		crossPodSpec(ft, 0, 3), // spans both shards; home = shard 1
	}}, time.Now().UnixNano())
	if !resp.OK || !resp.Verdicts[0].OK {
		t.Fatalf("cross submit: %+v", resp)
	}
	if got := resp.Verdicts[0].Shard; got != 1 {
		t.Errorf("cross event homed on shard %d, want 1", got)
	}
	if adm, rej := cl.Cross.Counters(); adm != 1 || rej != 0 {
		t.Errorf("cross counters = %d admitted, %d rejected, want 1, 0", adm, rej)
	}

	// A cross event larger than the per-shard pool is refused atomically:
	// nothing held, overloaded verdict.
	huge := crossPodSpec(ft, 1, 2)
	huge.Flows[0].DemandBps = int64(topology.Gbps) * 1000
	resp = gw.Handle(ctl.Request{Op: ctl.OpSubmitBatch, Events: []ctl.EventSpec{huge}}, time.Now().UnixNano())
	if !resp.OK {
		t.Fatalf("batch-level failure: %s", resp.Error)
	}
	v := resp.Verdicts[0]
	if v.OK || !v.Overloaded {
		t.Fatalf("oversized cross event verdict = %+v, want overloaded rejection", v)
	}
	adm, rej := cl.Cross.Counters()
	if adm != 1 || rej != 1 {
		t.Errorf("cross counters = %d admitted, %d rejected, want 1, 1", adm, rej)
	}

	// The aggregated stats surface the pool counters.
	st := gw.Handle(ctl.Request{Op: ctl.OpStats}, time.Now().UnixNano())
	if !st.OK || st.Stats == nil {
		t.Fatalf("stats: %+v", st)
	}
	if st.Stats.CrossEvents != 1 || st.Stats.CrossRejected != 1 {
		t.Errorf("stats cross = %d/%d, want 1/1", st.Stats.CrossEvents, st.Stats.CrossRejected)
	}
	if st.Stats.Shards != 2 || st.Stats.ShardID != 0 {
		t.Errorf("stats shards = %d id %d, want 2, 0", st.Stats.Shards, st.Stats.ShardID)
	}
}

// waitDone polls the gateway until n events completed cluster-wide.
func waitDone(t testing.TB, gw *Gateway, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := gw.Handle(ctl.Request{Op: ctl.OpStats}, time.Now().UnixNano())
		if !resp.OK || resp.Stats == nil {
			t.Fatalf("stats: %+v", resp)
		}
		if resp.Stats.EventsDone >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d events done", resp.Stats.EventsDone, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGatewayAggregation(t *testing.T) {
	gw, _, ft := testCluster(t, 2)
	var events []ctl.EventSpec
	for pod := 0; pod < 4; pod++ {
		events = append(events, intraPodSpec(ft, pod))
	}
	resp := gw.Handle(ctl.Request{Op: ctl.OpSubmitBatch, Events: events}, time.Now().UnixNano())
	if !resp.OK {
		t.Fatalf("submit: %s", resp.Error)
	}
	waitDone(t, gw, len(events))

	st := gw.Handle(ctl.Request{Op: ctl.OpStats}, time.Now().UnixNano())
	if st.Stats.EventsDone != len(events) {
		t.Errorf("EventsDone = %d, want %d", st.Stats.EventsDone, len(events))
	}
	if st.Stats.IngestAccepted != int64(len(events)) {
		t.Errorf("IngestAccepted = %d, want %d", st.Stats.IngestAccepted, len(events))
	}

	// Results fan in from every shard.
	res := gw.Handle(ctl.Request{Op: ctl.OpResults}, time.Now().UnixNano())
	if !res.OK || len(res.Results) != len(events) {
		t.Fatalf("results: ok=%v n=%d, want %d", res.OK, len(res.Results), len(events))
	}

	// Traces fan in with the shard stamped; per-shard streams are intact.
	tr := gw.Handle(ctl.Request{Op: ctl.OpTrace, N: 0}, time.Now().UnixNano())
	if !tr.OK || len(tr.Trace) == 0 {
		t.Fatalf("trace: %+v", tr)
	}
	seen := map[int]int{}
	for _, rec := range tr.Trace {
		if rec.Shard < 1 || rec.Shard > 2 {
			t.Fatalf("trace record with shard %d", rec.Shard)
		}
		seen[rec.Shard]++
	}
	if seen[1] == 0 || seen[2] == 0 {
		t.Errorf("aggregated trace missing a shard: %v", seen)
	}
}

func TestGatewayFaultRouting(t *testing.T) {
	gw, _, ref := testCluster(t, 2)
	// A core link is shared: the fault fans out to both worlds, and the
	// cluster-wide links-down count (a cumulative world total) reflects
	// every world's copy.
	coreLink, ok := ref.Graph().LinkBetween(ref.Cores()[0], ref.Agg(0, 0))
	if !ok {
		t.Fatal("no core->agg link")
	}
	resp := gw.Handle(ctl.Request{Op: ctl.OpFault, Fault: &ctl.FaultSpec{Action: "link-down", Link: int(coreLink)}}, time.Now().UnixNano())
	if !resp.OK || resp.Fault == nil {
		t.Fatalf("core fault: %+v", resp)
	}
	if resp.Fault.LinksDown != 2 {
		t.Errorf("core link-down LinksDown = %d, want 2 (one per world)", resp.Fault.LinksDown)
	}
	// A pod-internal link (edge->host in pod 0) is owned by shard 1:
	// only that world flips it.
	hostLink, ok := ref.Graph().LinkBetween(ref.Edge(0, 0), ref.Host(0, 0, 0))
	if !ok {
		t.Fatal("no edge->host link")
	}
	resp = gw.Handle(ctl.Request{Op: ctl.OpFault, Fault: &ctl.FaultSpec{Action: "link-down", Link: int(hostLink)}}, time.Now().UnixNano())
	if !resp.OK || resp.Fault == nil {
		t.Fatalf("pod fault: %+v", resp)
	}

	st := gw.Handle(ctl.Request{Op: ctl.OpStats}, time.Now().UnixNano())
	if st.Stats.FaultsInjected != 3 {
		t.Errorf("FaultsInjected = %d, want 3 (1 pod + 2 fanned out)", st.Stats.FaultsInjected)
	}
}

func TestGatewayRejectsReplOps(t *testing.T) {
	gw, _, _ := testCluster(t, 2)
	for _, op := range []ctl.Op{ctl.OpReplStatus, ctl.OpReplPromote} {
		resp := gw.Handle(ctl.Request{Op: op}, time.Now().UnixNano())
		if resp.OK {
			t.Errorf("%s through the gateway succeeded, want refusal", op)
		}
	}
}

// TestGatewayOverWire drives the gateway through the real codec: a
// client that negotiates shard verdicts sees the stamp; a second client
// that never asks for it works unchanged and gets plain verdicts.
func TestGatewayOverWire(t *testing.T) {
	gw, _, ft := testCluster(t, 2)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- gw.Serve(l) }()
	t.Cleanup(func() {
		if err := gw.Close(); err != nil {
			t.Errorf("gateway close: %v", err)
		}
		if err := <-serveErr; !errors.Is(err, ctl.ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	})

	bc, err := ctl.DialBinary(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	feats, err := bc.Features()
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
		t.Fatalf("gateway features %v missing %s", feats, ctl.FeatureShardVerdicts)
	}
	bc.EnableShardInfo()
	verdicts, _, err := bc.SubmitBatch([]ctl.EventSpec{intraPodSpec(ft, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if verdicts[0].Shard != 2 {
		t.Errorf("binary verdict shard = %d, want 2", verdicts[0].Shard)
	}

	pc, err := ctl.DialBinary(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	id, err := pc.Submit(intraPodSpec(ft, 0))
	if err != nil {
		t.Fatal(err)
	}
	if (id-1)%2 != 0 {
		t.Errorf("plain submit event ID %d off shard 1's lattice", id)
	}
	verdicts, _, err = pc.SubmitBatch([]ctl.EventSpec{intraPodSpec(ft, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if !verdicts[0].OK || verdicts[0].Shard != 0 {
		t.Errorf("plain verdict = %+v, want OK without a shard stamp", verdicts[0])
	}
	if _, err := pc.Stats(); err != nil {
		t.Fatal(err)
	}
}

// traceBytes renders one shard's trace stream as canonical JSON lines.
func traceBytes(t *testing.T, w *World) string {
	t.Helper()
	recs, err := w.Server.Trace(0)
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out += string(b) + "\n"
	}
	return out
}

// TestGatewayDeterminism runs the same cross-shard-heavy seeded
// workload through two fresh 2-shard clusters and requires every
// shard's trace stream to be byte-identical between runs — the
// sharded control plane must not introduce nondeterminism.
func TestGatewayDeterminism(t *testing.T) {
	run := func() []string {
		cfg := WorldConfig{K: 4, Util: 0.2, Scheduler: "p-lmtf", Alpha: 4, Seed: 1, Watermark: 1024, Shards: 2}
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		ref, err := topology.NewFatTree(4, topology.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		gw, err := NewGateway(cl.Part, ref.Graph(), cl.Cross, cl.Backends())
		if err != nil {
			t.Fatal(err)
		}
		defer gw.Close()

		// One batch: intra-pod and cross-pod events interleaved, so both
		// shards see local and cross-homed admissions in one EnqueueBatch.
		var events []ctl.EventSpec
		for i := 0; i < 12; i++ {
			if i%3 == 0 {
				events = append(events, crossPodSpec(ref, i%4, (i+2)%4))
			} else {
				events = append(events, intraPodSpec(ref, i%4))
			}
		}
		resp := gw.Handle(ctl.Request{Op: ctl.OpSubmitBatch, Events: events}, time.Now().UnixNano())
		if !resp.OK {
			t.Fatalf("submit: %s", resp.Error)
		}
		for _, v := range resp.Verdicts {
			if !v.OK {
				t.Fatalf("verdict: %+v", v)
			}
		}
		waitDone(t, gw, len(events))
		out := make([]string, len(cl.Worlds))
		for i, w := range cl.Worlds {
			out[i] = traceBytes(t, w)
		}
		return out
	}

	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("shard %d trace differs between identical runs:\nrun1:\n%s\nrun2:\n%s",
				i+1, firstDiff(a[i], b[i]), "")
		}
	}
}

func firstDiff(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("at byte %d:\n a: %.160s\n b: %.160s", i, a[lo:], b[lo:])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}
