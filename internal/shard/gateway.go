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
// full v2 protocol (through the same ctl.WireServer the engine server
// uses, so codecs cannot drift), routes every submitted event to
// the shard owning its pods, two-phase-admits cross-shard events
// against the reserved core pool, and fans per-shard answers back into
// the single-controller response shapes clients already understand.
//
// A request that reaches several shards asks them at once (ask), so it
// costs its slowest shard, not the sum of them, and the answers are
// folded in ascending shard order. Within one connection requests are
// handled one at a time and ask returns when every shard has answered,
// so each shard still receives its sub-requests in connection order:
// the gateway adds no nondeterminism of its own, which is what keeps a
// re-run of the same workload byte-identical per shard.
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
		if refused := gw.broadcast(ctl.Request{Op: ctl.OpResults}, func(_ int, resp *ctl.Response) { all = append(all, resp.Results...) }); refused != nil {
			return *refused
		}
		return ctl.Response{OK: true, Results: all}

	case ctl.OpStats, ctl.OpMetrics:
		resp := gw.sample()
		if resp.OK && req.Op == ctl.OpStats {
			resp.Stats, resp.Metrics = ctl.StatsOf(resp.Metrics), nil
		}
		return resp

	case ctl.OpTrace:
		var all []obs.Record
		if refused := gw.broadcast(ctl.Request{Op: ctl.OpTrace, N: req.N}, func(s int, resp *ctl.Response) {
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
// their home shards, asks those shards at once, and reassembles the
// verdicts in submission order. Cross-shard events first hold their
// demand from every touched shard's core pool (two-phase,
// all-or-nothing); a pool refusal surfaces as an overload verdict, and a
// pool admission whose home engine then refuses the event is released.
func (gw *Gateway) submit(req ctl.Request) ctl.Response {
	specs := req.Events
	if req.Op == ctl.OpSubmit {
		specs = []ctl.EventSpec{*req.Event}
	}
	verdicts := make([]ctl.SubmitVerdict, len(specs))
	keys := make([]Key, len(specs))
	// Index s-1 holds shard s's spec indexes, in order, and its request,
	// which gets an op (is asked) once the shard has an event; an unasked
	// shard's zero answer folds nothing.
	groups := make([][]int, gw.part.N())
	reqs := gw.every(ctl.Request{Retry: req.Retry, Span: req.Span, ShardInfo: true})
	for i := range specs {
		k := gw.part.KeyOfSpec(&specs[i])
		keys[i] = k
		if k.Cross && gw.cross != nil {
			if err := gw.cross.Admit(k.Touched, demandOf(&specs[i])); err != nil {
				verdicts[i] = ctl.SubmitVerdict{Error: err.Error(), Overloaded: true}
				continue
			}
		}
		h := k.Home - 1
		groups[h] = append(groups[h], i)
		reqs[h].Op, reqs[h].Events = ctl.OpSubmitBatch, append(reqs[h].Events, specs[i])
	}
	resps := gw.ask(reqs)

	var overload *ctl.OverloadInfo
	for g, idxs := range groups {
		s, resp := g+1, &resps[g]
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
// the lattice, so those ask every shard, and the lowest-numbered shard
// that knows the ID answers.
func (gw *Gateway) status(req ctl.Request) ctl.Response {
	switch id := req.EventID; {
	case id >= int64(sim.RepairEventIDBase):
		gw.fanouts.Inc()
		for _, resp := range gw.ask(gw.every(req)) {
			if resp.OK && resp.Status != nil && resp.Status.State != ctl.StateUnknown {
				return resp
			}
		}
	case id >= 1:
		return gw.backends[(id-1)%int64(gw.part.N())].Do(req)
	}
	return ctl.Response{OK: true, Status: &ctl.EventStatus{EventID: req.EventID, State: ctl.StateUnknown}}
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
	// Shared-layer fault: apply to every world, fold the results. A
	// shard's refusal does not stop the others from applying it.
	var agg *ctl.FaultResult
	if refused := gw.broadcast(req, func(_ int, resp *ctl.Response) {
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

// sample merges every shard's metrics in shard order behind the
// gateway's own (first, so its shard info — slot 0 of N — wins): the
// cluster as one sample, which OpStats decodes.
func (gw *Gateway) sample() ctl.Response {
	samples := make([]obs.Sample, 1, gw.part.N()+1)
	if refused := gw.broadcast(ctl.Request{Op: ctl.OpMetrics}, func(_ int, resp *ctl.Response) { samples = append(samples, resp.Metrics) }); refused != nil {
		return *refused
	}
	samples[0] = gw.reg.Sample()
	return ctl.Response{OK: true, Metrics: obs.Merge(samples...)}
}

// broadcast asks every shard req and folds the answers in ascending
// shard order; the lowest-numbered refusal is returned, prefixed with
// the shard that gave it. A fan-out every shard accepted counts once.
func (gw *Gateway) broadcast(req ctl.Request, fold func(s int, resp *ctl.Response)) *ctl.Response {
	resps := gw.ask(gw.every(req))
	for i := range resps {
		if !resps[i].OK {
			resps[i].Error = fmt.Sprintf("shard %d: %s", i+1, resps[i].Error)
			return &resps[i]
		}
		fold(i+1, &resps[i])
	}
	gw.fanouts.Inc()
	return nil
}

// every is req once per shard.
func (gw *Gateway) every(req ctl.Request) []ctl.Request {
	reqs := make([]ctl.Request, gw.part.N())
	for i := range reqs {
		reqs[i] = req
	}
	return reqs
}

// ask is the gateway's one fan-out: it sends reqs[s-1] to shard s for
// every slot with an op (a slot without one skips its shard), all at
// once through atOnce, and returns the answers by shard index.
func (gw *Gateway) ask(reqs []ctl.Request) []ctl.Response {
	resps := make([]ctl.Response, len(reqs))
	// The asked slots stay on the stack for any partition size.
	var buf [maxShards]int
	asked := buf[:0]
	for i := range reqs {
		if reqs[i].Op != "" {
			asked = append(asked, i)
		}
	}
	atOnce(asked, func(i int) { resps[i] = gw.backends[i].Do(reqs[i]) })
	return resps
}

// atOnce calls fn(i) for every i in slots, all at once, and returns when
// every call has: the first slot runs on the caller's goroutine and each
// other on its own, so a single slot starts no goroutine. It is the one
// place package shard starts goroutines — the gateway's fan-out and the
// cluster's stand-up both go through it.
func atOnce(slots []int, fn func(i int)) {
	if len(slots) == 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(slots) - 1)
	for _, i := range slots[1:] {
		go func() { defer wg.Done(); fn(i) }()
	}
	fn(slots[0])
	wg.Wait()
}
