package shard

import (
	"testing"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/obs"
	"netupdate/internal/topology"
)

// plantedShard is an in-process shard whose registry the test fills by
// hand; the gateway's stats path only ever calls Do(OpMetrics).
type plantedShard struct {
	ctl.Backend
	reg *obs.Registry
}

func (p plantedShard) Do(req ctl.Request) ctl.Response {
	if req.Op != ctl.OpMetrics {
		return ctl.Response{OK: false, Error: "planted shard answers metrics only"}
	}
	return ctl.Response{OK: true, Metrics: p.reg.Sample()}
}

// TestGatewayExactClusterView: the cluster's latency percentiles are the
// percentiles of every shard's observations together — not the worst
// shard's — and its average ECT is Σsum / Σcount, not a weighted mean of
// means each shard already truncated.
func TestGatewayExactClusterView(t *testing.T) {
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartition(ft, 2)
	if err != nil {
		t.Fatal(err)
	}
	one := obs.NewRegistry().NewDurationHistogram("all", "every e2e observation")
	type plant struct {
		n   int
		e2e time.Duration
	}
	shard := func(lat []plant, ects ...int64) plantedShard {
		reg := obs.NewRegistry()
		l, sm := obs.NewLatencyMetrics(reg), obs.NewSimMetrics(reg)
		for _, p := range lat {
			for i := 0; i < p.n; i++ {
				l.E2E.Observe(int64(p.e2e))
				one.Observe(int64(p.e2e))
			}
		}
		for _, e := range ects {
			sm.ECT.Observe(e)
			sm.EventsDone.Inc()
		}
		return plantedShard{reg: reg}
	}
	// Shard 1 is fast and busy, shard 2 slow and quiet: shard 2's p99 is
	// 100ms, the cluster's is shard 1's millisecond. Each shard's mean
	// ECT truncates away half a nanosecond.
	a := shard([]plant{{1000, time.Millisecond}, {3, 40 * time.Millisecond}}, 1000001, 1000002)
	b := shard([]plant{{10, 100 * time.Millisecond}, {90, 3 * time.Microsecond}}, 2000002, 2000003)
	gw, err := NewGateway(part, ft.Graph(), nil, []ctl.Backend{a, b})
	if err != nil {
		t.Fatal(err)
	}
	resp := gw.Handle(ctl.Request{Op: ctl.OpStats}, time.Now().UnixNano())
	if !resp.OK || resp.Stats == nil {
		t.Fatalf("stats: %+v", resp)
	}
	st := resp.Stats
	for _, c := range []struct {
		name string
		got  int64
		p    float64
	}{
		{"p50", st.LatencyE2EP50Ns, 50},
		{"p95", st.LatencyE2EP95Ns, 95},
		{"p99", st.LatencyE2EP99Ns, 99},
		{"p99.9", st.LatencyE2EP999Ns, 99.9},
	} {
		if want := one.Percentile(c.p); c.got != want {
			t.Errorf("cluster e2e %s = %d, one histogram of every observation says %d", c.name, c.got, want)
		}
	}
	p99 := func(s obs.Sample) int64 {
		v, _ := s.Get("netupdate_latency_e2e_ns")
		return v.Hist.Percentile(99)
	}
	worst := max(p99(a.reg.Sample()), p99(b.reg.Sample()))
	if worst == one.Percentile(99) {
		t.Fatalf("planted observations do not separate the worst shard's p99 from the cluster's")
	}
	const sum, count = 1000001 + 1000002 + 2000002 + 2000003, 4
	if st.AvgECT != sum/count || st.EventsDone != count {
		t.Errorf("cluster avg ECT = %d over %d events, want Σsum/Σcount = %d over %d", st.AvgECT, st.EventsDone, sum/count, count)
	}
	if weighted := time.Duration(1000001*2+2000002*2) / count; st.AvgECT == weighted {
		t.Fatalf("planted ECTs do not separate Σsum/Σcount from the mean of truncated means")
	}
	if st.TailECT != 2000003 || st.Shards != 2 || st.ShardID != 0 {
		t.Errorf("tail ECT %d, shards %d, id %d; want 2000003, 2, 0", st.TailECT, st.Shards, st.ShardID)
	}

	// OpMetrics on the gateway answers the merged sample itself.
	m := gw.Handle(ctl.Request{Op: ctl.OpMetrics}, time.Now().UnixNano())
	if e2e, _ := m.Metrics.Get("netupdate_latency_e2e_ns"); !m.OK || e2e.Hist.Count != one.Count() {
		t.Errorf("gateway metrics: %+v", m)
	}
}

// TestGatewayCrossRefusedByHome: a cross-shard event the pool admits but
// its home engine refuses is released and counted nowhere; an accepted
// one is counted once, the same on /metrics, in Counters and in Stats.
func TestGatewayCrossRefusedByHome(t *testing.T) {
	gw, cl, ft := testCluster(t, 2)
	counts := func() (ledger, metric, stats int64) {
		t.Helper()
		ledger, _ = cl.Cross.Counters()
		metric, _ = gw.Registry().Snapshot()["netupdate_gateway_cross_admitted_total"].(int64)
		st := gw.Handle(ctl.Request{Op: ctl.OpStats}, time.Now().UnixNano())
		if !st.OK || st.Stats == nil {
			t.Fatalf("stats: %+v", st)
		}
		return ledger, metric, st.Stats.CrossEvents
	}

	bad := crossPodSpec(ft, 0, 3)
	h := int(ft.Host(0, 0, 0))
	bad.Flows = append(bad.Flows, ctl.FlowSpec{Src: h, Dst: h, DemandBps: 1e6}) // the home engine's validation refuses it
	resp := gw.Handle(ctl.Request{Op: ctl.OpSubmitBatch, Events: []ctl.EventSpec{bad}}, time.Now().UnixNano())
	if !resp.OK || resp.Verdicts[0].OK || resp.Verdicts[0].Overloaded {
		t.Fatalf("want a validation refusal from the home engine, got %+v", resp)
	}
	if l, m, s := counts(); l != 0 || m != 0 || s != 0 {
		t.Errorf("refused cross event counted: ledger %d, /metrics %d, stats %d; want 0", l, m, s)
	}

	resp = gw.Handle(ctl.Request{Op: ctl.OpSubmitBatch, Events: []ctl.EventSpec{crossPodSpec(ft, 0, 3)}}, time.Now().UnixNano())
	if !resp.OK || !resp.Verdicts[0].OK {
		t.Fatalf("cross submit: %+v", resp)
	}
	if l, m, s := counts(); l != 1 || m != 1 || s != 1 {
		t.Errorf("accepted cross event: ledger %d, /metrics %d, stats %d; want 1 each", l, m, s)
	}
}
