package shard

import (
	"math/rand"
	"testing"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/topology"
)

// BenchmarkGatewaySubmit is the gateway hop as a paced client sees it:
// one 8-event request (1–4 flows of 2 Mbps each, 90 % inside one pod,
// drawn like the benchmark's gateway_mix) submitted through Handle to
// four WAL-backed shards (group commit) of a k = 8 fabric at util 0.3
// under p-lmtf. A request reaches ≈ 3.6 shards, each of which admits
// its sub-batch on its state loop and fsyncs it before answering.
func BenchmarkGatewaySubmit(b *testing.B) {
	cl, err := NewCluster(WorldConfig{
		K: 8, Util: 0.3, Scheduler: "p-lmtf", Alpha: 4, Seed: 1, Shards: 4,
		Watermark: ctl.DefaultHighWatermark, WALDir: b.TempDir(), WALSync: "group",
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	gw, err := NewGateway(cl.Part, cl.Ref.Graph(), cl.Cross, cl.Backends())
	if err != nil {
		b.Fatal(err)
	}
	defer gw.Close()

	rng := rand.New(rand.NewSource(7))
	requests := make([][]ctl.EventSpec, 64)
	for r := range requests {
		requests[r] = mixEvents(cl.Ref, rng, 8)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := gw.Handle(ctl.Request{Op: ctl.OpSubmitBatch, Events: requests[i%len(requests)]}, time.Now().UnixNano())
		if !resp.OK {
			b.Fatalf("request %d: %s", i, resp.Error)
		}
		for _, v := range resp.Verdicts {
			if !v.OK {
				b.Fatalf("request %d: event refused: %s", i, v.Error)
			}
		}
	}
}

// mixEvents draws n events shaped like the benchmark's gateway_mix: 1–4
// flows of 2 Mbps and 100 KB each, both ends of every flow inside one
// pod for 90 % of the events and anywhere in the fabric otherwise.
func mixEvents(ft *topology.FatTree, rng *rand.Rand, n int) []ctl.EventSpec {
	hosts := ft.Hosts()
	pods := make([][]topology.NodeID, ft.NumPods())
	for _, h := range hosts {
		pods[ft.PodOfHost(h)] = append(pods[ft.PodOfHost(h)], h)
	}
	events := make([]ctl.EventSpec, n)
	for i := range events {
		pool := hosts
		if rng.Float64() < 0.9 {
			pool = pods[rng.Intn(len(pods))]
		}
		flows := make([]ctl.FlowSpec, 1+rng.Intn(4))
		for j := range flows {
			src, dst := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool)-1)]
			if dst == src {
				dst = pool[len(pool)-1]
			}
			flows[j] = ctl.FlowSpec{Src: int(src), Dst: int(dst), DemandBps: int64(2 * topology.Mbps), SizeBytes: 100e3}
		}
		events[i] = ctl.EventSpec{Kind: "bench", Flows: flows}
	}
	return events
}
