package shard

import (
	"fmt"
	"net"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/obs"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
)

// Gateway fronts N shard engines with one ctl endpoint: it speaks the
// full v1/v2 protocol (through the same ctl.WireServer the engine
// server uses, so codecs cannot drift), routes every submitted event to
// the shard owning its pods, two-phase-admits cross-shard events
// against the reserved core pool, and fans per-shard answers back into
// the single-controller response shapes clients already understand.
//
// Fan-out is always in ascending shard order and, within one
// connection, requests are handled one at a time — the gateway adds no
// nondeterminism of its own, which is what keeps a re-run of the same
// workload byte-identical per shard.
type Gateway struct {
	part     *Partition
	graph    *topology.Graph // reference topology, for fault routing
	cross    *CrossAdmitter
	backends []ctl.Backend // index s-1 holds shard s
	wire     *ctl.WireServer

	reg      *obs.Registry
	routed   *obs.Counter
	fanouts  *obs.Counter
	crossAdm *obs.Counter
	crossRej *obs.Counter
}

// NewGateway wires a gateway over the given backends. part decides
// event routing, graph is the reference topology fault specs are
// resolved against, and cross holds the cross-shard pool ledgers (nil
// disables the pool check, admitting every cross event).
func NewGateway(part *Partition, graph *topology.Graph, cross *CrossAdmitter, backends []ctl.Backend) (*Gateway, error) {
	if len(backends) != part.N() {
		return nil, fmt.Errorf("shard: %d backends for %d shards", len(backends), part.N())
	}
	reg := obs.NewRegistry()
	gw := &Gateway{
		part:     part,
		graph:    graph,
		cross:    cross,
		backends: backends,
		reg:      reg,
		routed:   reg.NewCounter("netupdate_gateway_routed_events_total", "Events routed to a home shard."),
		fanouts:  reg.NewCounter("netupdate_gateway_fanouts_total", "Requests fanned out to every shard."),
		crossAdm: reg.NewCounter("netupdate_gateway_cross_admitted_total", "Cross-shard events admitted through the core pool."),
		crossRej: reg.NewCounter("netupdate_gateway_cross_rejected_total", "Cross-shard events refused for core-pool exhaustion."),
	}
	gw.wire = &ctl.WireServer{Handle: gw.Handle}
	return gw, nil
}

// Registry exposes the gateway's own metrics (routing and cross-pool
// counters) for /metrics.
func (gw *Gateway) Registry() *obs.Registry { return gw.reg }

// Serve accepts ctl connections on l until Close.
func (gw *Gateway) Serve(l net.Listener) error { return gw.wire.Serve(l) }

// ListenAndServe listens on addr and serves until Close.
func (gw *Gateway) ListenAndServe(addr string) error { return gw.wire.ListenAndServe(addr) }

// Close stops the wire. The backends are owned by the caller (an
// in-process Cluster or dialed remote clients) and are not closed.
func (gw *Gateway) Close() error { return gw.wire.Close() }

// Handle answers one decoded request; it is the WireServer handler and
// the in-process entry point for tests.
func (gw *Gateway) Handle(req ctl.Request, ingestWall int64) ctl.Response {
	switch req.Op {
	case ctl.OpPing:
		return ctl.Response{OK: true, Features: []string{ctl.FeatureSpanContext, ctl.FeatureShardVerdicts}}

	case ctl.OpSubmit, ctl.OpSubmitBatch:
		return gw.submit(req)

	case ctl.OpStatus:
		return gw.status(req)

	case ctl.OpResults:
		var all []ctl.EventStatus
		for s := 1; s <= gw.part.N(); s++ {
			resp := gw.backends[s-1].Do(ctl.Request{Op: ctl.OpResults})
			if !resp.OK {
				return resp
			}
			all = append(all, resp.Results...)
		}
		gw.fanouts.Inc()
		return ctl.Response{OK: true, Results: all}

	case ctl.OpStats:
		return gw.stats()

	case ctl.OpTrace:
		var all []obs.Record
		for s := 1; s <= gw.part.N(); s++ {
			resp := gw.backends[s-1].Do(ctl.Request{Op: ctl.OpTrace, N: req.N})
			if !resp.OK {
				return resp
			}
			for _, rec := range resp.Trace {
				rec.Shard = s
				all = append(all, rec)
			}
		}
		gw.fanouts.Inc()
		return ctl.Response{OK: true, Trace: all}

	case ctl.OpSnapshot:
		// One shard's world stands in for the cluster: every world
		// replicates the full topology, so shard 1's snapshot carries the
		// complete graph (with its own pods' flows placed).
		return gw.backends[0].Do(req)

	case ctl.OpFault:
		return gw.fault(req)

	case ctl.OpReplStatus, ctl.OpReplPromote:
		return ctl.Response{OK: false, Error: fmt.Sprintf("%v: %s not supported through the gateway (address a shard directly)", ctl.ErrBadRequest, req.Op)}

	default:
		return ctl.Response{OK: false, Error: fmt.Sprintf("%v: unknown op %q", ctl.ErrBadRequest, req.Op)}
	}
}

// endpointsOf collects a spec's flow endpoints for shard-key
// resolution.
func endpointsOf(spec *ctl.EventSpec) []topology.NodeID {
	eps := make([]topology.NodeID, 0, 2*len(spec.Flows))
	for _, f := range spec.Flows {
		eps = append(eps, topology.NodeID(f.Src), topology.NodeID(f.Dst))
	}
	return eps
}

// demandOf is a spec's aggregate demand — what a cross-shard event
// holds from each touched shard's core pool.
func demandOf(spec *ctl.EventSpec) int64 {
	var d int64
	for _, f := range spec.Flows {
		d += f.DemandBps
	}
	return d
}

// submit routes the events of one submit or submit-batch request to
// their home shards and reassembles the verdicts in submission order.
// Cross-shard events first hold their demand from every touched shard's
// core pool (two-phase, all-or-nothing); a pool refusal surfaces as an
// overload verdict, and a pool admission whose home engine then refuses
// the event is released.
func (gw *Gateway) submit(req ctl.Request) ctl.Response {
	specs := req.Events
	if req.Op == ctl.OpSubmit {
		specs = []ctl.EventSpec{*req.Event}
	}
	verdicts := make([]ctl.SubmitVerdict, len(specs))
	keys := make([]Key, len(specs))
	groups := make(map[int][]int, gw.part.N()) // home shard -> spec indexes, in order
	for i := range specs {
		k := gw.part.KeyOf(endpointsOf(&specs[i]))
		keys[i] = k
		if k.Cross && gw.cross != nil {
			if err := gw.cross.Admit(k.Touched, demandOf(&specs[i])); err != nil {
				verdicts[i] = ctl.SubmitVerdict{Error: err.Error(), Overloaded: true}
				gw.crossRej.Inc()
				continue
			}
			gw.crossAdm.Inc()
		}
		groups[k.Home] = append(groups[k.Home], i)
	}

	var overload *ctl.OverloadInfo
	for s := 1; s <= gw.part.N(); s++ {
		idxs := groups[s]
		if len(idxs) == 0 {
			continue
		}
		sub := make([]ctl.EventSpec, len(idxs))
		for j, i := range idxs {
			sub[j] = specs[i]
		}
		resp := gw.backends[s-1].Do(ctl.Request{
			Op: ctl.OpSubmitBatch, Events: sub,
			Retry: req.Retry, Span: req.Span, ShardInfo: true,
		})
		if !resp.OK || len(resp.Verdicts) != len(idxs) {
			errText := resp.Error
			if resp.OK {
				errText = fmt.Sprintf("shard %d: %d verdicts for %d events", s, len(resp.Verdicts), len(idxs))
			}
			for _, i := range idxs {
				verdicts[i] = ctl.SubmitVerdict{Error: errText}
				gw.release(keys[i], &specs[i])
			}
			continue
		}
		if resp.Overload != nil && overload == nil {
			overload = resp.Overload
		}
		for j, i := range idxs {
			v := resp.Verdicts[j]
			if v.Shard == 0 {
				v.Shard = s
			}
			verdicts[i] = v
			if v.OK {
				gw.routed.Inc()
			} else {
				gw.release(keys[i], &specs[i])
			}
		}
	}

	if req.Op == ctl.OpSubmit {
		v := verdicts[0]
		if !v.OK {
			return ctl.Response{OK: false, Error: v.Error, Overload: overload}
		}
		return ctl.Response{OK: true, EventID: v.EventID}
	}
	return ctl.Response{OK: true, Verdicts: verdicts, Overload: overload}
}

// release returns a cross event's pool debit after its home engine
// refused it.
func (gw *Gateway) release(k Key, spec *ctl.EventSpec) {
	if k.Cross && gw.cross != nil {
		gw.cross.Release(k.Touched, demandOf(spec))
	}
}

// status routes a status query by the event-ID lattice: shard s of N
// mints s, s+N, s+2N, …, so the owner is ((id-1) mod N)+1. Repair
// events are minted engine-locally above sim.RepairEventIDBase outside
// the lattice, so those fan out to whichever shard knows the ID.
func (gw *Gateway) status(req ctl.Request) ctl.Response {
	id := req.EventID
	if id >= int64(sim.RepairEventIDBase) {
		gw.fanouts.Inc()
		for s := 1; s <= gw.part.N(); s++ {
			resp := gw.backends[s-1].Do(req)
			if resp.OK && resp.Status != nil && resp.Status.State != ctl.StateUnknown {
				return resp
			}
		}
		return ctl.Response{OK: true, Status: &ctl.EventStatus{EventID: id, State: ctl.StateUnknown}}
	}
	if id < 1 {
		return ctl.Response{OK: true, Status: &ctl.EventStatus{EventID: id, State: ctl.StateUnknown}}
	}
	s := int((id-1)%int64(gw.part.N())) + 1
	return gw.backends[s-1].Do(req)
}

// fault routes a fault injection: a fault scoped to one shard's pods
// goes only there, while faults on the shared layers (core links, core
// switches) and event-install faults outside any lattice hit every
// world — each shard replicates the full topology, so a core failure
// must degrade all of them coherently.
func (gw *Gateway) fault(req ctl.Request) ctl.Response {
	f := req.Fault
	if f == nil {
		return ctl.Response{OK: false, Error: fmt.Sprintf("%v: fault spec missing", ctl.ErrBadRequest)}
	}
	owner := 0
	switch f.Action {
	case "link-down", "link-up":
		if f.Link < 0 || f.Link >= gw.graph.NumLinks() {
			return ctl.Response{OK: false, Error: fmt.Sprintf("%v: link %d out of range", ctl.ErrBadRequest, f.Link)}
		}
		l := gw.graph.Link(topology.LinkID(f.Link))
		owner = gw.part.LinkOwner(l.From, l.To)
	case "switch-down", "switch-up":
		if pod := gw.part.mapper.PodOf(topology.NodeID(f.Node)); pod >= 0 {
			owner = gw.part.OfPod(pod)
		}
	case "install-timeout":
		if f.Event >= 1 && f.Event < int64(sim.RepairEventIDBase) {
			owner = int((f.Event-1)%int64(gw.part.N())) + 1
		}
	}
	if owner > 0 {
		return gw.backends[owner-1].Do(req)
	}
	// Shared-layer fault: apply to every world, fold the results.
	gw.fanouts.Inc()
	var agg *ctl.FaultResult
	for s := 1; s <= gw.part.N(); s++ {
		resp := gw.backends[s-1].Do(req)
		if !resp.OK {
			return resp
		}
		r := resp.Fault
		if r == nil {
			continue
		}
		if agg == nil {
			cp := *r
			agg = &cp
			continue
		}
		agg.FlowsAffected += r.FlowsAffected
		agg.LinksDown += r.LinksDown
		if r.LinksChanged > agg.LinksChanged {
			agg.LinksChanged = r.LinksChanged
		}
		if agg.RepairEventID == 0 {
			agg.RepairEventID = r.RepairEventID
		}
	}
	return ctl.Response{OK: true, Fault: agg}
}

// stats fans in every shard's stats and folds them into one
// cluster-wide view: counters sum, averages weight by completed events,
// the virtual clock is the furthest shard's, and the cross-pool
// counters come from the gateway's own ledgers.
func (gw *Gateway) stats() ctl.Response {
	per := make([]ctl.Stats, 0, gw.part.N())
	for s := 1; s <= gw.part.N(); s++ {
		resp := gw.backends[s-1].Do(ctl.Request{Op: ctl.OpStats})
		if !resp.OK {
			return resp
		}
		if resp.Stats == nil {
			return ctl.Response{OK: false, Error: fmt.Sprintf("shard %d: stats: empty response", s)}
		}
		per = append(per, *resp.Stats)
	}
	gw.fanouts.Inc()
	agg := mergeStats(per)
	if gw.cross != nil {
		adm, rej := gw.cross.Counters()
		agg.CrossEvents = adm
		agg.CrossRejected = rej
	}
	return ctl.Response{OK: true, Stats: agg}
}

func mergeStats(per []ctl.Stats) *ctl.Stats {
	agg := &ctl.Stats{
		Scheduler:       per[0].Scheduler,
		IngestWatermark: per[0].IngestWatermark,
		Shards:          len(per),
	}
	var utilSum float64
	var ectWeighted, queueWeighted int64
	for i := range per {
		p := &per[i]
		utilSum += p.Utilization
		agg.FlowsPlaced += p.FlowsPlaced
		agg.EventsQueued += p.EventsQueued
		agg.EventsDone += p.EventsDone
		agg.EventsRetained += p.EventsRetained
		agg.TotalCostBps += p.TotalCostBps
		ectWeighted += int64(p.AvgECT) * int64(p.EventsDone)
		queueWeighted += int64(p.AvgQueuingDelay) * int64(p.EventsDone)
		if p.TailECT > agg.TailECT {
			agg.TailECT = p.TailECT
		}
		agg.PlanTime += p.PlanTime
		if p.VirtualClock > agg.VirtualClock {
			agg.VirtualClock = p.VirtualClock
		}
		agg.Probes += p.Probes
		agg.Rounds += p.Rounds
		agg.FaultsInjected += p.FaultsInjected
		agg.LinksDown += p.LinksDown
		agg.RepairEvents += p.RepairEvents
		agg.FlowsDisrupted += p.FlowsDisrupted
		agg.InstallRetries += p.InstallRetries
		agg.InstallRollbacks += p.InstallRollbacks
		agg.IngestAccepted += p.IngestAccepted
		agg.IngestRejected += p.IngestRejected
		agg.IngestRetried += p.IngestRetried
		agg.IngestBatches += p.IngestBatches
		agg.CodecV2Conns += p.CodecV2Conns
		agg.FramesV1 += p.FramesV1
		agg.FramesV2 += p.FramesV2
		agg.WALEnabled = agg.WALEnabled || p.WALEnabled
		if p.WALLastSeq > agg.WALLastSeq {
			agg.WALLastSeq = p.WALLastSeq
		}
		if p.WALCheckpointSeq > agg.WALCheckpointSeq {
			agg.WALCheckpointSeq = p.WALCheckpointSeq
		}
		agg.WALAppends += p.WALAppends
		agg.WALCheckpoints += p.WALCheckpoints
		agg.WALReplayed += p.WALReplayed
		if p.WALRecoveryMs > agg.WALRecoveryMs {
			agg.WALRecoveryMs = p.WALRecoveryMs
		}
		if p.WALSyncPolicy != "" && agg.WALSyncPolicy == "" {
			agg.WALSyncPolicy = p.WALSyncPolicy
		}
		agg.WALFsyncCount += p.WALFsyncCount
		// Percentiles cannot be merged exactly; the cluster view reports
		// the worst shard's, a conservative bound.
		agg.WALFsyncP50Ns = max(agg.WALFsyncP50Ns, p.WALFsyncP50Ns)
		agg.WALFsyncP99Ns = max(agg.WALFsyncP99Ns, p.WALFsyncP99Ns)
		agg.LatencyE2EP50Ns = max(agg.LatencyE2EP50Ns, p.LatencyE2EP50Ns)
		agg.LatencyE2EP95Ns = max(agg.LatencyE2EP95Ns, p.LatencyE2EP95Ns)
		agg.LatencyE2EP99Ns = max(agg.LatencyE2EP99Ns, p.LatencyE2EP99Ns)
		agg.LatencyE2EP999Ns = max(agg.LatencyE2EP999Ns, p.LatencyE2EP999Ns)
		agg.LatencyQueueP50Ns = max(agg.LatencyQueueP50Ns, p.LatencyQueueP50Ns)
		agg.LatencyQueueP99Ns = max(agg.LatencyQueueP99Ns, p.LatencyQueueP99Ns)
		agg.LatencyRoundsP50Ns = max(agg.LatencyRoundsP50Ns, p.LatencyRoundsP50Ns)
		agg.LatencyRoundsP99Ns = max(agg.LatencyRoundsP99Ns, p.LatencyRoundsP99Ns)
		agg.SpansDropped += p.SpansDropped
	}
	agg.Utilization = utilSum / float64(len(per))
	if agg.EventsDone > 0 {
		agg.AvgECT = time.Duration(ectWeighted / int64(agg.EventsDone))
		agg.AvgQueuingDelay = time.Duration(queueWeighted / int64(agg.EventsDone))
	}
	agg.ProbeCacheMisses, agg.ProbeColdPlans = agg.Probes, agg.Probes
	return agg
}
