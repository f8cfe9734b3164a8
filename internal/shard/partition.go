// Package shard partitions the control plane by pod: a Partition maps
// every pod of a topology onto one of N engine shards, each shard runs
// the ordinary single-world state loop (engine + scheduler + WAL,
// unchanged) over its slice of the network, and a Gateway fronting the
// shards speaks the ctl protocol, routing each submitted event to the
// shard owning its endpoints' pods. Events whose endpoints span shards
// take a two-phase admission path over the reserved cross-shard core
// pool (see CrossAdmitter) before landing on their home shard.
package shard

import (
	"fmt"
	"math/bits"

	"netupdate/internal/ctl"
	"netupdate/internal/topology"
)

// PodMapper exposes a topology's pod structure: how many pods there are
// and which pod a node belongs to (-1 for pod-less nodes — fat-tree
// cores, leaf-spine spines). Both *topology.FatTree and
// *topology.LeafSpine satisfy it.
type PodMapper interface {
	NumPods() int
	PodOf(topology.NodeID) int
}

// Partition assigns pods to N shards in contiguous runs: shard s
// (1-based) owns pods [⌈(s-1)·P/N⌉, ⌈s·P/N⌉). Contiguity keeps the map
// describable by two integers per shard and makes ownership stable as
// shards are added in powers of two.
type Partition struct {
	mapper PodMapper
	n      int
	alone  [][]int // index s-1: the Touched of an event only shard s owns
}

// maxShards bounds N so a key's touched set fits one uint64 bitmask.
const maxShards = 64

// NewPartition builds a partition of m's pods over n shards. Every
// shard must own at least one pod, so n is capped by the pod count.
func NewPartition(m PodMapper, n int) (*Partition, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, have %d", n)
	}
	if p := m.NumPods(); n > p {
		return nil, fmt.Errorf("shard: %d shards over %d pods leaves empty shards", n, p)
	}
	if n > maxShards {
		return nil, fmt.Errorf("shard: %d shards, at most %d", n, maxShards)
	}
	alone := make([][]int, n)
	for s := range alone {
		alone[s] = []int{s + 1}
	}
	return &Partition{mapper: m, n: n, alone: alone}, nil
}

// N reports the shard count.
func (p *Partition) N() int { return p.n }

// OfPod returns the 1-based shard owning pod, or 0 for pods outside
// [0, NumPods).
func (p *Partition) OfPod(pod int) int {
	if pod < 0 || pod >= p.mapper.NumPods() {
		return 0
	}
	return pod*p.n/p.mapper.NumPods() + 1
}

// PodsOf returns the pods shard s (1-based) owns, in ascending order.
func (p *Partition) PodsOf(s int) []int {
	var pods []int
	for pod := 0; pod < p.mapper.NumPods(); pod++ {
		if p.OfPod(pod) == s {
			pods = append(pods, pod)
		}
	}
	return pods
}

// Key classifies one event by the shards its endpoints' pods resolve
// to: Home is the routing destination (the lowest touched shard), and
// Cross marks events spanning more than one shard, which must hold
// cross-pool core capacity on every touched shard before admission.
type Key struct {
	Home    int
	Cross   bool
	Touched []int // ascending, at least [Home]; shared, never written
}

// KeyOf resolves an event's endpoint set to its shard key. An endpoint
// with no pod (a core or spine switch — possible only for synthetic
// specs, never host-to-host traffic) is conservatively treated as
// touching every shard.
func (p *Partition) KeyOf(endpoints []topology.NodeID) Key {
	var mask uint64
	for _, ep := range endpoints {
		mask = p.touch(mask, ep)
	}
	return p.keyOfMask(mask)
}

// KeyOfSpec is KeyOf over a spec's flow endpoints, sources and
// destinations alike.
func (p *Partition) KeyOfSpec(spec *ctl.EventSpec) Key {
	var mask uint64
	for _, f := range spec.Flows {
		mask = p.touch(p.touch(mask, topology.NodeID(f.Src)), topology.NodeID(f.Dst))
	}
	return p.keyOfMask(mask)
}

// touch adds the shard owning node's pod to mask (bit s-1 for shard s);
// a pod-less node touches every shard.
func (p *Partition) touch(mask uint64, node topology.NodeID) uint64 {
	pod := p.mapper.PodOf(node)
	if pod < 0 {
		return 1<<p.n - 1
	}
	return mask | 1<<(p.OfPod(pod)-1)
}

// keyOfMask reads a touched set out in ascending shard order. A
// one-shard set shares that shard's Touched slice, so routing a
// pod-local event allocates nothing.
func (p *Partition) keyOfMask(mask uint64) Key {
	if mask == 0 {
		// No endpoints (an empty event): route to shard 1, whose
		// validation will reject it with the same error an unsharded
		// server gives.
		return Key{Home: 1, Touched: p.alone[0]}
	}
	home := bits.TrailingZeros64(mask) + 1
	if mask&(mask-1) == 0 {
		return Key{Home: home, Touched: p.alone[home-1]}
	}
	touched := make([]int, 0, bits.OnesCount64(mask))
	for ; mask != 0; mask &= mask - 1 {
		touched = append(touched, bits.TrailingZeros64(mask)+1)
	}
	return Key{Home: home, Cross: true, Touched: touched}
}

// LinkOwner resolves a link to the shard owning both its endpoints, or
// 0 when the link crosses shards or touches a pod-less node (core
// links): those belong to the shared core layer.
func (p *Partition) LinkOwner(from, to topology.NodeID) int {
	fp, tp := p.mapper.PodOf(from), p.mapper.PodOf(to)
	if fp < 0 || tp < 0 {
		return 0
	}
	fs, ts := p.OfPod(fp), p.OfPod(tp)
	if fs != ts {
		return 0
	}
	return fs
}
