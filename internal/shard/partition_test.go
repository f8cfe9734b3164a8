package shard

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"netupdate/internal/ctl"
	"netupdate/internal/routing"
	"netupdate/internal/topology"
)

// TestPartitionCoversPods: every pod maps to exactly one shard, shards
// are contiguous, non-empty, and together cover the pod set.
func TestPartitionCoversPods(t *testing.T) {
	for _, k := range []int{4, 6, 8} {
		ft, err := topology.NewFatTree(k, topology.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= k; n++ {
			part, err := NewPartition(ft, n)
			if err != nil {
				t.Fatalf("k=%d n=%d: %v", k, n, err)
			}
			seen := 0
			for s := 1; s <= n; s++ {
				pods := part.PodsOf(s)
				if len(pods) == 0 {
					t.Errorf("k=%d n=%d: shard %d owns no pods", k, n, s)
				}
				for i, pod := range pods {
					if part.OfPod(pod) != s {
						t.Errorf("k=%d n=%d: pod %d not mapped back to shard %d", k, n, pod, s)
					}
					if i > 0 && pod != pods[i-1]+1 {
						t.Errorf("k=%d n=%d: shard %d pods not contiguous: %v", k, n, s, pods)
					}
				}
				seen += len(pods)
			}
			if seen != k {
				t.Errorf("k=%d n=%d: shards cover %d pods, want %d", k, n, seen, k)
			}
		}
		if _, err := NewPartition(ft, k+1); err == nil {
			t.Errorf("k=%d: partition with empty shards accepted", k)
		}
		if _, err := NewPartition(ft, 0); err == nil {
			t.Errorf("k=%d: zero-shard partition accepted", k)
		}
	}
}

// linkSetProperty checks the assignment invariant for one provider:
// every link of every candidate path of a host pair is either owned by
// a shard the event's key touches or belongs to the shared core
// (owner 0) — no event can ever need a link owned by a shard its key
// does not name.
func linkSetProperty(t *testing.T, name string, g *topology.Graph, part *Partition,
	paths func(src, dst topology.NodeID) routing.PathSet, hosts []topology.NodeID, rng *rand.Rand) {
	t.Helper()
	for trial := 0; trial < 200; trial++ {
		src := hosts[rng.Intn(len(hosts))]
		dst := src
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		key := part.KeyOf([]topology.NodeID{src, dst})
		if key.Home < 1 || key.Home > part.N() {
			t.Fatalf("%s: home shard %d out of range", name, key.Home)
		}
		if key.Cross != (len(key.Touched) > 1) {
			t.Fatalf("%s: cross=%v with touched %v", name, key.Cross, key.Touched)
		}
		touched := make(map[int]bool, len(key.Touched))
		for _, s := range key.Touched {
			touched[s] = true
		}
		set := paths(src, dst)
		for i := 0; i < set.Len(); i++ {
			for _, lid := range set.At(i).Links() {
				l := g.Link(lid)
				owner := part.LinkOwner(l.From, l.To)
				if owner == 0 {
					continue // shared core layer, governed by the cross pool
				}
				if !touched[owner] {
					t.Fatalf("%s: pair (%d,%d) key %+v path uses link %v owned by shard %d",
						name, src, dst, key, l, owner)
				}
			}
		}
		if !key.Cross {
			// A single-shard event's endpoints must actually live there.
			for _, ep := range []topology.NodeID{src, dst} {
				if got := part.OfPod(part.mapper.PodOf(ep)); got != key.Home {
					t.Fatalf("%s: endpoint %d maps to shard %d, key home %d", name, ep, got, key.Home)
				}
			}
		}
	}
}

// TestShardKeyAssignmentProperty: across fat-trees (k=4/6/8) and a
// leaf-spine, for random host pairs and every shard count, each event
// resolves to exactly one owning shard or the cross-shard path, and its
// routable link set never leaves {touched shards} ∪ {core}.
func TestShardKeyAssignmentProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, k := range []int{4, 6, 8} {
		ft, err := topology.NewFatTree(k, topology.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		prov := routing.NewFatTreeProvider(ft)
		for n := 1; n <= k; n++ {
			part, err := NewPartition(ft, n)
			if err != nil {
				t.Fatal(err)
			}
			linkSetProperty(t, "fat-tree", ft.Graph(), part, prov.Paths, ft.Hosts(), rng)
		}
	}

	ls, err := topology.NewLeafSpine(6, 3, 4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	var hosts []topology.NodeID
	for l := 0; l < ls.NumLeaves; l++ {
		for h := 0; h < ls.HostsPerLeaf; h++ {
			hosts = append(hosts, ls.Host(l, h))
		}
	}
	prov := routing.NewBFSProvider(ls.Graph(), 8)
	for n := 1; n <= ls.NumLeaves; n++ {
		part, err := NewPartition(ls, n)
		if err != nil {
			t.Fatal(err)
		}
		linkSetProperty(t, "leaf-spine", ls.Graph(), part, prov.Paths, hosts, rng)
	}
}

// TestKeyOfEdgeCases pins the conservative paths: pod-less endpoints
// touch every shard; empty endpoint sets route to shard 1.
func TestKeyOfEdgeCases(t *testing.T) {
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartition(ft, 2)
	if err != nil {
		t.Fatal(err)
	}
	key := part.KeyOf([]topology.NodeID{ft.Cores()[0]})
	if !key.Cross || len(key.Touched) != 2 {
		t.Errorf("core endpoint key = %+v, want cross touching all shards", key)
	}
	key = part.KeyOf(nil)
	if key.Home != 1 || key.Cross {
		t.Errorf("empty key = %+v, want home 1 non-cross", key)
	}
	// A key is a bitmask over the shards, so 64 is the most a partition takes.
	if _, err := NewPartition(podCount(64), 64); err != nil {
		t.Errorf("64 shards refused: %v", err)
	}
	if _, err := NewPartition(podCount(65), 65); err == nil {
		t.Errorf("65 shards accepted")
	}
}

// podCount is a PodMapper with that many pods and no nodes.
type podCount int

func (n podCount) NumPods() int            { return int(n) }
func (podCount) PodOf(topology.NodeID) int { return -1 }

// keyOfOracle is KeyOf as first written — a set, then a sort — kept to
// hold the bitmask resolution to it.
func keyOfOracle(p *Partition, endpoints []topology.NodeID) Key {
	touched := make(map[int]struct{})
	for _, ep := range endpoints {
		pod := p.mapper.PodOf(ep)
		if pod < 0 {
			for s := 1; s <= p.n; s++ {
				touched[s] = struct{}{}
			}
			break
		}
		touched[p.OfPod(pod)] = struct{}{}
	}
	if len(touched) == 0 {
		return Key{Home: 1, Touched: []int{1}}
	}
	ids := make([]int, 0, len(touched))
	for s := range touched {
		ids = append(ids, s)
	}
	sort.Ints(ids)
	return Key{Home: ids[0], Cross: len(ids) > 1, Touched: ids}
}

// TestKeyOfMatchesOracle: over every ordered host pair of a k = 4 and a
// k = 8 fat-tree, every shard count, and the pair with a core endpoint
// added, KeyOf and KeyOfSpec give the oracle's key.
func TestKeyOfMatchesOracle(t *testing.T) {
	for _, k := range []int{4, 8} {
		ft, err := topology.NewFatTree(k, topology.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		hosts := ft.Hosts()
		for n := 1; n <= k; n++ {
			part, err := NewPartition(ft, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range hosts {
				for _, dst := range hosts {
					for _, eps := range [][]topology.NodeID{{src, dst}, {src, dst, ft.Cores()[0]}} {
						want := keyOfOracle(part, eps)
						if got := part.KeyOf(eps); !reflect.DeepEqual(got, want) {
							t.Fatalf("k=%d n=%d %v: KeyOf = %+v, oracle %+v", k, n, eps, got, want)
						}
					}
					spec := ctl.EventSpec{Flows: []ctl.FlowSpec{{Src: int(src), Dst: int(dst)}}}
					if got, want := part.KeyOfSpec(&spec), keyOfOracle(part, []topology.NodeID{src, dst}); !reflect.DeepEqual(got, want) {
						t.Fatalf("k=%d n=%d (%d,%d): KeyOfSpec = %+v, oracle %+v", k, n, src, dst, got, want)
					}
				}
			}
			if got, want := part.KeyOfSpec(&ctl.EventSpec{}), keyOfOracle(part, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d n=%d: empty KeyOfSpec = %+v, oracle %+v", k, n, got, want)
			}
		}
	}
}

// TestKeyOfPodLocalAllocFree: routing a pod-local event allocates
// nothing — its Touched is the partition's shared one-shard slice.
func TestKeyOfPodLocalAllocFree(t *testing.T) {
	ft, err := topology.NewFatTree(8, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartition(ft, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := ctl.EventSpec{Flows: []ctl.FlowSpec{
		{Src: int(ft.Host(5, 0, 0)), Dst: int(ft.Host(5, 1, 1))},
		{Src: int(ft.Host(5, 2, 0)), Dst: int(ft.Host(5, 3, 1))},
	}}
	eps := []topology.NodeID{ft.Host(5, 0, 0), ft.Host(5, 3, 1)}
	var key Key
	if n := testing.AllocsPerRun(100, func() { key = part.KeyOfSpec(&spec) }); n != 0 {
		t.Errorf("KeyOfSpec of a pod-local event: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { key = part.KeyOf(eps) }); n != 0 {
		t.Errorf("KeyOf of a pod-local event: %v allocs, want 0", n)
	}
	if key.Cross || key.Home != 3 || !reflect.DeepEqual(key.Touched, []int{3}) {
		t.Errorf("pod 5 of 8 over 4 shards: key %+v, want home 3 alone", key)
	}
}
