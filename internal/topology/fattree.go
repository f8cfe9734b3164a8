package topology

import (
	"errors"
	"fmt"
)

// ErrInvalidK is returned by NewFatTree for k values that do not describe a
// Fat-Tree (k must be even and >= 2).
var ErrInvalidK = errors.New("fat-tree parameter k must be even and >= 2")

// FatTree is a k-ary Fat-Tree data-center topology (Leiserson [17]; the
// paper evaluates k=8 with 1 Gbps links). It wraps a Graph and keeps the
// structural indexes needed for O(1) addressing of switches and hosts:
//
//   - (k/2)^2 core switches, indexed by (group, index) with group < k/2,
//   - k pods, each with k/2 aggregation and k/2 edge switches,
//   - k/2 hosts per edge switch, k^3/4 hosts in total.
//
// Aggregation switch a of every pod connects to the k/2 core switches of
// group a; edge switch e connects to all k/2 aggregation switches of its
// pod and to its k/2 hosts.
type FatTree struct {
	// K is the Fat-Tree arity parameter.
	K int
	// LinkCapacity is the capacity assigned to every (directed) link.
	LinkCapacity Bandwidth

	graph *Graph
	cores []NodeID   // (k/2)^2 core switches, index = group*k/2 + j
	aggs  [][]NodeID // [pod][i] aggregation switches
	edges [][]NodeID // [pod][i] edge switches
	hosts []NodeID   // all hosts, index = pod*(k/2)^2 + edge*(k/2) + h
	// hostIdx[n] is node n's index in hosts, or -1 for a switch: O(1)
	// address decomposition by NodeID.
	hostIdx []int32
}

// NewFatTree builds a k-ary Fat-Tree in which every directed link has the
// given capacity. The paper's testbed is NewFatTree(8, topology.Gbps).
func NewFatTree(k int, capacity Bandwidth) (*FatTree, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("k=%d: %w", k, ErrInvalidK)
	}
	if capacity < 0 {
		return nil, fmt.Errorf("capacity %d: %w", int64(capacity), ErrNegativeBandwidth)
	}
	half := k / 2
	ft := &FatTree{
		K:            k,
		LinkCapacity: capacity,
		graph:        NewGraph(),
		cores:        make([]NodeID, 0, half*half),
		aggs:         make([][]NodeID, k),
		edges:        make([][]NodeID, k),
		hosts:        make([]NodeID, 0, k*half*half),
	}
	g := ft.graph

	for grp := 0; grp < half; grp++ {
		for j := 0; j < half; j++ {
			ft.cores = append(ft.cores, g.AddNode(KindCoreSwitch, fmt.Sprintf("core(%d,%d)", grp, j)))
		}
	}
	for pod := 0; pod < k; pod++ {
		ft.aggs[pod] = make([]NodeID, half)
		ft.edges[pod] = make([]NodeID, half)
		for i := 0; i < half; i++ {
			ft.aggs[pod][i] = g.AddNode(KindAggSwitch, fmt.Sprintf("pod%d/agg%d", pod, i))
		}
		for i := 0; i < half; i++ {
			ft.edges[pod][i] = g.AddNode(KindEdgeSwitch, fmt.Sprintf("pod%d/edge%d", pod, i))
		}
		for e := 0; e < half; e++ {
			for h := 0; h < half; h++ {
				ft.hosts = append(ft.hosts, g.AddNode(KindHost, fmt.Sprintf("host(%d,%d,%d)", pod, e, h)))
			}
		}
	}
	ft.hostIdx = make([]int32, g.NumNodes())
	for i := range ft.hostIdx {
		ft.hostIdx[i] = -1
	}
	for i, id := range ft.hosts {
		ft.hostIdx[id] = int32(i)
	}

	// Wire core <-> aggregation: agg i of every pod reaches core group i.
	for pod := 0; pod < k; pod++ {
		for i := 0; i < half; i++ {
			agg := ft.aggs[pod][i]
			for j := 0; j < half; j++ {
				if _, _, err := g.AddBiLink(ft.cores[i*half+j], agg, capacity); err != nil {
					return nil, fmt.Errorf("fat-tree core wiring: %w", err)
				}
			}
		}
	}
	// Wire aggregation <-> edge: full bipartite graph within each pod.
	for pod := 0; pod < k; pod++ {
		for i := 0; i < half; i++ {
			for e := 0; e < half; e++ {
				if _, _, err := g.AddBiLink(ft.aggs[pod][i], ft.edges[pod][e], capacity); err != nil {
					return nil, fmt.Errorf("fat-tree pod wiring: %w", err)
				}
			}
		}
	}
	// Wire edge <-> hosts.
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			for h := 0; h < half; h++ {
				if _, _, err := g.AddBiLink(ft.edges[pod][e], ft.Host(pod, e, h), capacity); err != nil {
					return nil, fmt.Errorf("fat-tree host wiring: %w", err)
				}
			}
		}
	}
	return ft, nil
}

// Graph returns the underlying graph. Callers share it with the FatTree;
// mutations (reservations) are visible through both.
func (ft *FatTree) Graph() *Graph { return ft.graph }

// NumPods returns the number of pods (= k).
func (ft *FatTree) NumPods() int { return ft.K }

// NumHosts returns the total number of hosts (= k^3/4).
func (ft *FatTree) NumHosts() int { return len(ft.hosts) }

// NumSwitches returns the total number of switches (= 5k^2/4).
func (ft *FatTree) NumSwitches() int {
	return len(ft.cores) + ft.K*(ft.K/2)*2
}

// Core returns the core switch of the given group and index (both < k/2).
func (ft *FatTree) Core(group, j int) NodeID { return ft.cores[group*(ft.K/2)+j] }

// Cores returns all core switch IDs. The slice is owned by the FatTree.
func (ft *FatTree) Cores() []NodeID { return ft.cores }

// Agg returns aggregation switch i of the given pod.
func (ft *FatTree) Agg(pod, i int) NodeID { return ft.aggs[pod][i] }

// Edge returns edge switch i of the given pod.
func (ft *FatTree) Edge(pod, i int) NodeID { return ft.edges[pod][i] }

// Host returns the h-th host under edge switch e of the given pod.
func (ft *FatTree) Host(pod, e, h int) NodeID {
	half := ft.K / 2
	return ft.hosts[pod*half*half+e*half+h]
}

// Hosts returns all host IDs in address order. The slice is owned by the
// FatTree and must not be modified.
func (ft *FatTree) Hosts() []NodeID { return ft.hosts }

// HostIndex returns the host's position in Hosts(), its ordinal in
// 0..NumHosts()-1, or -1 if id is not a host of this Fat-Tree.
func (ft *FatTree) HostIndex(id NodeID) int {
	if id < 0 || int(id) >= len(ft.hostIdx) {
		return -1
	}
	return int(ft.hostIdx[id])
}

// HostAddr decomposes a host NodeID into its (pod, edge, index) address.
// ok is false if the node is not a host of this Fat-Tree.
func (ft *FatTree) HostAddr(id NodeID) (pod, edge, h int, ok bool) {
	idx := ft.HostIndex(id)
	if idx < 0 {
		return 0, 0, 0, false
	}
	half := ft.K / 2
	pod = idx / (half * half)
	rem := idx % (half * half)
	return pod, rem / half, rem % half, true
}

// PodOf returns the pod a node belongs to: the pod number for hosts,
// edge and aggregation switches, and -1 for core switches (which belong
// to no pod) and unknown IDs. This is the shard key of the pod-sharded
// control plane: a node with PodOf >= 0 is owned by exactly one pod.
func (ft *FatTree) PodOf(id NodeID) int {
	if p := ft.PodOfHost(id); p >= 0 {
		return p
	}
	if id < 0 || int(id) >= ft.graph.NumNodes() {
		return -1
	}
	switch ft.graph.Node(id).Kind {
	case KindAggSwitch, KindEdgeSwitch:
		// Nodes are minted cores-first, then per-pod blocks of
		// k/2 aggs + k/2 edges + (k/2)^2 hosts (see NewFatTree).
		half := ft.K / 2
		perPod := 2*half + half*half
		return (int(id) - half*half) / perPod
	default:
		return -1
	}
}

// PodOfHost returns the pod number of a host, or -1 if id is not a host.
func (ft *FatTree) PodOfHost(id NodeID) int {
	pod, _, _, ok := ft.HostAddr(id)
	if !ok {
		return -1
	}
	return pod
}

// EdgeOfHost returns the edge switch a host attaches to, or InvalidNode.
func (ft *FatTree) EdgeOfHost(id NodeID) NodeID {
	pod, e, _, ok := ft.HostAddr(id)
	if !ok {
		return InvalidNode
	}
	return ft.edges[pod][e]
}
