package shard

import (
	"fmt"
	"net"
	"strconv"
	"sync"

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
// Fan-out is in ascending shard order and, within one connection,
// requests are handled one at a time — the gateway adds no
// nondeterminism of its own, which is what keeps a re-run of the same
// workload byte-identical per shard. The one exception is the metrics
// read behind OpStats and OpMetrics: it changes no shard, so it asks
// every shard at once and merges the answers in shard order.
type Gateway struct {
	part     *Partition
	graph    *topology.Graph // reference topology, for fault routing
	cross    *CrossAdmitter
	backends []ctl.Backend // index s-1 holds shard s
	wire     *ctl.WireServer

	reg     *obs.Registry
	routed  *obs.Counter
	fanouts *obs.Counter
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
	}
	reg.NewCounterFunc("netupdate_gateway_cross_admitted_total", "Cross-shard events admitted through the core pool and accepted by their home shard.",
		func() int64 { adm, _ := cross.Counters(); return adm })
	reg.NewCounterFunc("netupdate_gateway_cross_rejected_total", "Cross-shard events refused for core-pool exhaustion.",
		func() int64 { _, rej := cross.Counters(); return rej })
	reg.NewInfo("netupdate_shard_info", "The gateway's place in the sharded deployment: slot 0 of the shards it fronts.",
		map[string]string{"shard": "0", "shards": strconv.Itoa(part.N())})
	gw.wire = &ctl.WireServer{Handle: gw.Handle}
	return gw, nil
}

// Registry exposes the gateway's own metrics (routing and cross-pool
// counters, its shard info) for /metrics.
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
		if refused := gw.fanout(ctl.Request{Op: ctl.OpResults}, func(_ int, resp *ctl.Response) { all = append(all, resp.Results...) }); refused != nil {
			return *refused
		}
		return ctl.Response{OK: true, Results: all}

	case ctl.OpStats:
		resp := gw.sample()
		if resp.OK {
			resp.Stats, resp.Metrics = ctl.StatsOf(resp.Metrics), nil
		}
		return resp

	case ctl.OpMetrics:
		return gw.sample()

	case ctl.OpTrace:
		var all []obs.Record
		if refused := gw.fanout(ctl.Request{Op: ctl.OpTrace, N: req.N}, func(s int, resp *ctl.Response) {
			for _, rec := range resp.Trace {
				rec.Shard = s
				all = append(all, rec)
			}
		}); refused != nil {
			return *refused
		}
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
				continue
			}
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
				if keys[i].Cross && gw.cross != nil {
					gw.cross.Confirm()
				}
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
	var agg *ctl.FaultResult
	if refused := gw.fanout(req, func(_ int, resp *ctl.Response) {
		switch r := resp.Fault; {
		case r == nil:
		case agg == nil:
			agg = r
		default:
			agg.FlowsAffected += r.FlowsAffected
			agg.LinksDown += r.LinksDown
			agg.LinksChanged = max(agg.LinksChanged, r.LinksChanged)
			if agg.RepairEventID == 0 {
				agg.RepairEventID = r.RepairEventID
			}
		}
	}); refused != nil {
		return *refused
	}
	return ctl.Response{OK: true, Fault: agg}
}

// sample asks every shard for its metrics at once — a read, so the
// order the shards answer in changes nothing, and waiting on the slowest
// engine instead of on all of them in turn keeps a stats read as quick
// as it was when shards answered with their Stats — and merges the
// answers in shard order behind the gateway's own registry's (first, so
// its shard info — slot 0 of N — wins): the cluster as one sample, which
// OpStats decodes.
func (gw *Gateway) sample() ctl.Response {
	resps := make([]ctl.Response, gw.part.N())
	var wg sync.WaitGroup
	for i := range resps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i] = gw.backends[i].Do(ctl.Request{Op: ctl.OpMetrics})
		}()
	}
	wg.Wait()
	samples := make([]obs.Sample, 1, len(resps)+1)
	for _, resp := range resps {
		if !resp.OK {
			return resp
		}
		samples = append(samples, resp.Metrics)
	}
	gw.fanouts.Inc()
	samples[0] = gw.reg.Sample()
	return ctl.Response{OK: true, Metrics: obs.Merge(samples...)}
}

// fanout sends req to every shard in ascending order and folds each
// answer; the first refusal is returned as the shard gave it. A fan-out
// that reached every shard counts once.
func (gw *Gateway) fanout(req ctl.Request, fold func(s int, resp *ctl.Response)) *ctl.Response {
	for s := 1; s <= gw.part.N(); s++ {
		resp := gw.backends[s-1].Do(req)
		if !resp.OK {
			return &resp
		}
		fold(s, &resp)
	}
	gw.fanouts.Inc()
	return nil
}
