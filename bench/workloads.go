package main

import (
	"fmt"
	"math/rand"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

// fatTreeK is the fabric every workload runs on: the paper's 8-pod
// fat-tree (128 hosts).
const fatTreeK = 8

// Latency limits of the paced phase. They sit an order of magnitude
// above the medians so in_limit_share moves only on stalls, refusals
// and failures, not on the ordinary run-to-run wobble of the median.
const (
	ackLimit  = 25 * time.Millisecond
	doneLimit = 100 * time.Millisecond
)

// workload is one deployment + traffic mix. Sizes are in the ISSUE's
// letters: W warm events, R drain rounds of B events, the last P of
// which land after the forced checkpoint (so recovery replays P·B
// records); the paced phase offers rate events/s in requests of group
// events, watches every sampleEvery-th event to completion and issues
// statsHz Stats calls per second.
type workload struct {
	name string
	why  string

	util      float64
	scheduler string
	shards    int  // > 1: shard.NewCluster behind shard.NewGateway
	follower  bool // leader + in-process warm follower

	warm, rounds, batch, ckptRounds int

	rate        float64
	group       int
	sampleEvery int
	statsHz     float64

	// gen draws n events from rng; the program under test only ever sees
	// the generated specs.
	gen func(seed int64, ft *topology.FatTree, n int) ([]ctl.EventSpec, error)
}

var workloads = []*workload{
	{
		name: "paper_plan",
		why:  "paper regime (10-100-flow events, util 0.6, p-lmtf): probe, fork and greedy migration planning dominate; the only workload with Cost(U) > 0",
		util: 0.6, scheduler: "p-lmtf",
		warm: 60, rounds: 4, batch: 150, ckptRounds: 1,
		rate: 15, group: 1, sampleEvery: 1, statsHz: 10,
		gen: genPaper,
	},
	{
		name: "durable_ingest",
		why:  "same fabric with planning made trivial (fifo, cost 0): codec, state-loop admit, WAL fsync and follower ack carry the latency; 100k events of history expose O(history) state",
		util: 0.3, scheduler: "fifo", follower: true,
		warm: 4000, rounds: 20, batch: 4000, ckptRounds: 5,
		rate: 1000, group: 8, sampleEvery: 10, statsHz: 10,
		gen: genSmall(5*topology.Mbps, 0),
	},
	{
		name: "gateway_mix",
		why:  "writes beside reads through the 4-shard gateway: serial per-shard fan-out, 10% two-phase cross-shard admissions, 50 Stats/s fan-outs and Status polls on the same loops",
		util: 0.3, scheduler: "p-lmtf", shards: 4,
		warm: 3000, rounds: 8, batch: 3000, ckptRounds: 2,
		rate: 400, group: 8, sampleEvery: 4, statsHz: 50,
		gen: genSmall(2*topology.Mbps, 0.9),
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks the fixed-work phases by div (the smoke test runs at
// 1/20 scale); rates and limits never change.
func (w *workload) scaled(div int) *workload {
	c := *w
	c.warm = max(1, w.warm/div)
	c.batch = max(1, w.batch/div)
	return &c
}

// genPaper draws the paper's update events: trace.YahooLike flows via
// Generator.Event, 10-100 flows each.
func genPaper(seed int64, ft *topology.FatTree, n int) ([]ctl.EventSpec, error) {
	gen, err := trace.NewGenerator(seed, trace.YahooLike{}, ft.Hosts())
	if err != nil {
		return nil, err
	}
	out := make([]ctl.EventSpec, n)
	for i := range out {
		ev := gen.Event(0, "bench", 0, 10, 100)
		spec := ctl.EventSpec{Kind: "bench", Flows: make([]ctl.FlowSpec, len(ev.Specs))}
		for j, s := range ev.Specs {
			spec.Flows[j] = ctl.FlowSpec{Src: int(s.Src), Dst: int(s.Dst), DemandBps: int64(s.Demand), SizeBytes: s.Size}
		}
		out[i] = spec
	}
	return out, nil
}

// genSmall draws 1-4-flow events of fixed demand and 100 KB size. With
// probability podLocal an event keeps both ends of every flow inside
// one pod (a single shard's work); otherwise host pairs are uniform
// over the fabric, which under the gateway makes the event cross-shard.
func genSmall(demand topology.Bandwidth, podLocal float64) func(int64, *topology.FatTree, int) ([]ctl.EventSpec, error) {
	return func(seed int64, ft *topology.FatTree, n int) ([]ctl.EventSpec, error) {
		rng := rand.New(rand.NewSource(seed))
		hosts := ft.Hosts()
		pods := make([][]topology.NodeID, ft.NumPods())
		for _, h := range hosts {
			pod := ft.PodOfHost(h)
			pods[pod] = append(pods[pod], h)
		}
		out := make([]ctl.EventSpec, n)
		for i := range out {
			pool := hosts
			if rng.Float64() < podLocal {
				pool = pods[rng.Intn(len(pods))]
			}
			flows := make([]ctl.FlowSpec, 1+rng.Intn(4))
			for j := range flows {
				src := pool[rng.Intn(len(pool))]
				dst := src
				for dst == src {
					dst = pool[rng.Intn(len(pool))]
				}
				flows[j] = ctl.FlowSpec{Src: int(src), Dst: int(dst), DemandBps: int64(demand), SizeBytes: 100e3}
			}
			out[i] = ctl.EventSpec{Kind: "bench", Flows: flows}
		}
		return out, nil
	}
}

// pacedSchedule is the open loop's request due times (offsets from the
// phase start): exponential gaps with mean group/rate, so events arrive
// at rate per second in requests of group.
func pacedSchedule(seed int64, w *workload, length time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	meanGap := float64(w.group) / w.rate * float64(time.Second)
	var dues []time.Duration
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() * meanGap)
		if at >= length {
			return dues
		}
		dues = append(dues, at)
	}
}
