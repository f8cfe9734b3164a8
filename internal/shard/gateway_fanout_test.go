package shard

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/obs"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
)

// gate decides when a planted shard may answer the request it holds:
// enter blocks until the shard may answer (false: it gave up waiting),
// leave marks it answered.
type gate interface {
	enter(s int) bool
	leave(s int)
}

// giveUp bounds every wait of a gate, so a gateway that asks its shards
// one after another gets refusals rather than a hung test.
const giveUp = 2 * time.Second

// together lets no shard answer before every shard the request reaches
// has entered Do: only a fan-out that asks them at once gets through.
type together struct {
	mu   sync.Mutex
	left int
	all  chan struct{}
}

func newTogether(reach int) *together { return &together{left: reach, all: make(chan struct{})} }

func (g *together) enter(int) bool {
	g.mu.Lock()
	if g.left--; g.left == 0 {
		close(g.all)
	}
	g.mu.Unlock()
	select {
	case <-g.all:
		return true
	case <-time.After(giveUp):
		return false
	}
}

func (*together) leave(int) {}

// free lets every shard answer at once.
type free struct{}

func (free) enter(int) bool { return true }
func (free) leave(int)      {}

// reversed makes shard s answer only after shard s+1 has, so shard N
// answers first and shard 1 last.
type reversed struct{ done []chan struct{} } // index s-1: closed once shard s answered

func newReversed(n int) *reversed {
	r := &reversed{done: make([]chan struct{}, n)}
	for i := range r.done {
		r.done[i] = make(chan struct{})
	}
	return r
}

func (r *reversed) enter(s int) bool {
	if s == len(r.done) {
		return true
	}
	select {
	case <-r.done[s]:
		return true
	case <-time.After(giveUp):
		return false
	}
}

func (r *reversed) leave(s int) { close(r.done[s-1]) }

// fanShard is a planted shard (see plantedShard) for the fan-out tests:
// it answers every op the gateway sends it with canned data stamped
// with its own number, once the shared gate lets it.
type fanShard struct {
	ctl.Backend
	s, n   int
	gate   *gate           // shared by every shard; set before each request
	knows  map[int64]bool  // repair IDs this shard answers a status for
	refuse map[ctl.Op]bool // ops this shard refuses
	asked  map[ctl.Op]*atomic.Int32
}

func (f *fanShard) Do(req ctl.Request) ctl.Response {
	f.asked[req.Op].Add(1)
	g := *f.gate
	if !g.enter(f.s) {
		return ctl.Response{OK: false, Error: "gave up waiting for the other shards"}
	}
	defer g.leave(f.s)
	if f.refuse[req.Op] {
		return ctl.Response{OK: false, Error: "planted refusal"}
	}
	switch req.Op {
	case ctl.OpSubmitBatch:
		vs := make([]ctl.SubmitVerdict, len(req.Events))
		for j := range vs {
			// Shard s mints on the lattice s, s+N, s+2N, …
			vs[j] = ctl.SubmitVerdict{OK: true, EventID: int64(f.s + f.n*j), Shard: f.s}
		}
		return ctl.Response{OK: true, Verdicts: vs}
	case ctl.OpResults:
		return ctl.Response{OK: true, Results: []ctl.EventStatus{{EventID: int64(f.s)}}}
	case ctl.OpTrace:
		return ctl.Response{OK: true, Trace: []obs.Record{{Kind: "planted", VT: int64(f.s)}}}
	case ctl.OpFault:
		return ctl.Response{OK: true, Fault: &ctl.FaultResult{LinksDown: 1, FlowsAffected: f.s}}
	case ctl.OpMetrics:
		return ctl.Response{OK: true, Metrics: obs.NewRegistry().Sample()}
	case ctl.OpStatus:
		st := ctl.StateUnknown
		if f.knows[req.EventID] {
			st = ctl.StateQueued
		}
		return ctl.Response{OK: true, Status: &ctl.EventStatus{EventID: req.EventID, State: st, Flows: f.s}}
	}
	return ctl.Response{OK: false, Error: "planted shard: unexpected op " + string(req.Op)}
}

// fanCluster is a gateway over four planted shards, one per pod of a
// k = 4 fat-tree, with a cross-pool ledger of 10 Mbps per shard.
type fanCluster struct {
	gw     *Gateway
	ft     *topology.FatTree
	cross  *CrossAdmitter
	shards []*fanShard
	gate   gate
}

func newFanCluster(t *testing.T) *fanCluster {
	t.Helper()
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartition(ft, 4)
	if err != nil {
		t.Fatal(err)
	}
	fc := &fanCluster{ft: ft, cross: NewCrossAdmitter(4, 10*topology.Mbps)}
	backends := make([]ctl.Backend, 4)
	for i := range backends {
		f := &fanShard{s: i + 1, n: 4, gate: &fc.gate, knows: map[int64]bool{}, refuse: map[ctl.Op]bool{}, asked: map[ctl.Op]*atomic.Int32{}}
		for _, op := range []ctl.Op{ctl.OpSubmitBatch, ctl.OpResults, ctl.OpTrace, ctl.OpFault, ctl.OpMetrics, ctl.OpStatus} {
			f.asked[op] = new(atomic.Int32)
		}
		fc.shards, backends[i] = append(fc.shards, f), f
	}
	if fc.gw, err = NewGateway(part, ft.Graph(), fc.cross, backends); err != nil {
		t.Fatal(err)
	}
	return fc
}

func (fc *fanCluster) handle(g gate, req ctl.Request) ctl.Response {
	fc.gate = g
	return fc.gw.Handle(req, time.Now().UnixNano())
}

// coreFault is a link-down on a core→aggregation link: the shared layer,
// so every shard must apply it.
func (fc *fanCluster) coreFault(t *testing.T) ctl.Request {
	t.Helper()
	l, ok := fc.ft.Graph().LinkBetween(fc.ft.Cores()[0], fc.ft.Agg(0, 0))
	if !ok {
		t.Fatal("no core->agg link")
	}
	return ctl.Request{Op: ctl.OpFault, Fault: &ctl.FaultSpec{Action: "link-down", Link: int(l)}}
}

// TestGatewayAsksShardsAtOnce: every request that reaches all four
// shards is answered only if the gateway has them all in Do at once. A
// gateway that asks one shard after another gets each shard's refusal
// after giveUp instead.
func TestGatewayAsksShardsAtOnce(t *testing.T) {
	fc := newFanCluster(t)
	repair := int64(sim.RepairEventIDBase) + 5
	fc.shards[1].knows[repair], fc.shards[2].knows[repair] = true, true

	var events []ctl.EventSpec
	for pod := 0; pod < 4; pod++ {
		events = append(events, intraPodSpec(fc.ft, pod))
	}
	start := time.Now()
	resp := fc.handle(newTogether(4), ctl.Request{Op: ctl.OpSubmitBatch, Events: events})
	if !resp.OK {
		t.Fatalf("submit: %s", resp.Error)
	}
	for i, v := range resp.Verdicts {
		if !v.OK || v.Shard != i+1 {
			t.Errorf("verdict %d = %+v, want OK from shard %d", i, v, i+1)
		}
	}
	for _, c := range []struct {
		name string
		req  ctl.Request
	}{
		{"results", ctl.Request{Op: ctl.OpResults}},
		{"trace", ctl.Request{Op: ctl.OpTrace}},
		{"core-link fault", fc.coreFault(t)},
		{"stats", ctl.Request{Op: ctl.OpStats}},
	} {
		if resp := fc.handle(newTogether(4), c.req); !resp.OK {
			t.Errorf("%s: %s", c.name, resp.Error)
		}
	}
	st := fc.handle(newTogether(4), ctl.Request{Op: ctl.OpStatus, EventID: repair})
	if !st.OK || st.Status == nil || st.Status.State != ctl.StateQueued || st.Status.Flows != 2 {
		t.Errorf("repair status = %+v, want shard 2's answer (the lowest that knows the ID)", st.Status)
	}
	if d := time.Since(start); d >= giveUp {
		t.Errorf("six fan-outs took %v: some shard waited out its gate", d)
	}
}

// TestGatewayFanInIsPositional: shards answer in reverse order, yet
// verdicts come back in submission order and Results and Trace fold in
// shard order. A shard that refuses its whole sub-batch releases exactly
// its own cross events from the ledger; the others' stay held.
func TestGatewayFanInIsPositional(t *testing.T) {
	fc := newFanCluster(t)
	// Homes, in submission order: 4, 1 (cross 1+3), 3, 2 (cross 2+4), 1, 4, 2.
	events := []ctl.EventSpec{
		intraPodSpec(fc.ft, 3), crossPodSpec(fc.ft, 0, 2), intraPodSpec(fc.ft, 2),
		crossPodSpec(fc.ft, 1, 3), intraPodSpec(fc.ft, 0), intraPodSpec(fc.ft, 3), intraPodSpec(fc.ft, 1),
	}
	home := []int{4, 1, 3, 2, 1, 4, 2}
	nth := []int{0, 0, 0, 0, 1, 1, 1} // place in its home shard's sub-batch
	resp := fc.handle(newReversed(4), ctl.Request{Op: ctl.OpSubmitBatch, Events: events})
	if !resp.OK || len(resp.Verdicts) != len(events) {
		t.Fatalf("submit: %+v", resp)
	}
	for i, v := range resp.Verdicts {
		if want := int64(home[i] + 4*nth[i]); !v.OK || v.Shard != home[i] || v.EventID != want {
			t.Errorf("verdict %d = %+v, want event %d from shard %d", i, v, want, home[i])
		}
	}
	if adm, _ := fc.cross.Counters(); adm != 2 {
		t.Errorf("cross admitted %d, want 2", adm)
	}

	res := fc.handle(newReversed(4), ctl.Request{Op: ctl.OpResults})
	tr := fc.handle(newReversed(4), ctl.Request{Op: ctl.OpTrace})
	if !res.OK || !tr.OK || len(res.Results) != 4 || len(tr.Trace) != 4 {
		t.Fatalf("results %+v, trace %+v", res, tr)
	}
	for i := range res.Results {
		if s := int64(i + 1); res.Results[i].EventID != s || tr.Trace[i].Shard != i+1 || tr.Trace[i].VT != s {
			t.Errorf("fold position %d: result %+v, trace %+v; want shard %d's", i, res.Results[i], tr.Trace[i], s)
		}
	}

	// Shard 2 refuses its sub-batch: its cross event (touching 2 and 4)
	// gives its debit back; shard 1's (touching 1 and 3) keeps holding.
	fc = newFanCluster(t)
	fc.shards[1].refuse[ctl.OpSubmitBatch] = true
	resp = fc.handle(newReversed(4), ctl.Request{Op: ctl.OpSubmitBatch, Events: events})
	if !resp.OK {
		t.Fatalf("submit: %s", resp.Error)
	}
	for i, v := range resp.Verdicts {
		if refused := home[i] == 2; v.OK == refused {
			t.Errorf("verdict %d (home %d) = %+v", i, home[i], v)
		}
	}
	size, demand := int64(10*topology.Mbps), events[1].Flows[0].DemandBps
	want := []int64{size - demand, size, size - demand, size}
	for s, got := range fc.cross.avail {
		if got != want[s] {
			t.Errorf("shard %d pool = %d, want %d", s+1, got, want[s])
		}
	}
	if adm, _ := fc.cross.Counters(); adm != 1 {
		t.Errorf("cross admitted %d, want 1 (shard 1's)", adm)
	}
}

// TestGatewaySharedFaultRefusedByOne: a shared-layer fault one shard
// refuses is still applied by every other shard, and the answer is that
// refusal, naming the shard.
func TestGatewaySharedFaultRefusedByOne(t *testing.T) {
	fc := newFanCluster(t)
	fc.shards[1].refuse[ctl.OpFault] = true
	resp := fc.handle(free{}, fc.coreFault(t))
	if resp.OK || !strings.Contains(resp.Error, "shard 2") || !strings.Contains(resp.Error, "planted refusal") {
		t.Fatalf("fault refused by shard 2 answered %+v, want that refusal naming shard 2", resp)
	}
	for _, f := range fc.shards {
		if n := f.asked[ctl.OpFault].Load(); n != 1 {
			t.Errorf("shard %d asked %d times for the fault, want 1", f.s, n)
		}
	}
}
