package sim_test

import (
	"bytes"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/fault"
	"netupdate/internal/flow"
	"netupdate/internal/metrics"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/obs"
	"netupdate/internal/routing"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

// chaosRun is tracedRun plus a fault script: a fixed workload simulated
// under injected failures, returning the raw JSONL trace and the run's
// collector. met may be nil; when given, live metrics are updated too.
func chaosRun(t *testing.T, mk func() sched.Scheduler, mkScript func(g *topology.Graph) fault.Script, met *obs.SimMetrics) ([]byte, *metrics.Collector) {
	t.Helper()
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(7))
	gen, err := trace.NewGenerator(1, trace.YahooLike{}, ft.Hosts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.FillBackground(net, gen, 0.6, 0); err != nil {
		t.Fatal(err)
	}
	planner := core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)
	events := gen.Events(12, 4, 16)

	var buf bytes.Buffer
	tr := obs.NewTracer(obs.NewJSONLSink(&buf), met)
	eng := sim.NewEngine(planner, mk(), sim.Config{})
	eng.SetTracer(tr)
	eng.SetFaults(mkScript(ft.Graph()))
	col, err := eng.Run(events)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), col
}

// TestChaosTraceDeterminism is the chaos-harness acceptance criterion:
// the same seed and the same fault script yield byte-identical JSONL
// traces across repeated runs.
func TestChaosTraceDeterminism(t *testing.T) {
	script := func(g *topology.Graph) fault.Script {
		s := fault.RandomScript(42, g, 3, 2*time.Second, 500*time.Millisecond)
		// Mix in an install timeout so the retry path is under test too.
		s = append(s, fault.Injection{At: 50 * time.Millisecond, Action: fault.InstallTimeout, Times: 2})
		return s
	}
	for _, tc := range []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"lmtf", func() sched.Scheduler { return sched.NewLMTF(4, 1) }},
		{"plmtf", func() sched.Scheduler { return sched.NewPLMTF(4, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first, col := chaosRun(t, tc.mk, script, nil)
			second, _ := chaosRun(t, tc.mk, script, nil)
			if len(first) == 0 {
				t.Fatal("empty trace")
			}
			if col.FaultsInjected == 0 {
				t.Fatal("no faults applied; the script never fired")
			}
			if !bytes.Equal(first, second) {
				t.Error("two runs with the same seed and fault script produced different trace bytes")
			}
		})
	}
}

// TestLinkFailureRecoveryE2E is the recovery acceptance criterion: a
// loaded fabric link fails mid-schedule, the disrupted flows come back as
// a repair event that reroutes them, no link ever exceeds capacity, and
// the recovery counters are scrapeable via /metrics.
func TestLinkFailureRecoveryE2E(t *testing.T) {
	reg := obs.NewRegistry()
	met := obs.NewSimMetrics(reg)

	var failedLink topology.LinkID = topology.InvalidLink
	script := func(g *topology.Graph) fault.Script {
		// Fail the most loaded fabric link mid-schedule; repair it later.
		var best topology.Bandwidth = -1
		for i := 0; i < g.NumLinks(); i++ {
			l := g.Link(topology.LinkID(i))
			if !g.Node(l.From).Kind.IsSwitch() || !g.Node(l.To).Kind.IsSwitch() {
				continue
			}
			if l.Reserved() > best {
				best, failedLink = l.Reserved(), l.ID
			}
		}
		if best <= 0 {
			t.Fatal("background fill left every fabric link empty")
		}
		return fault.Script{
			{At: 40 * time.Millisecond, Action: fault.LinkDown, Link: int(failedLink)},
			{At: 5 * time.Second, Action: fault.LinkUp, Link: int(failedLink)},
		}
	}

	_, col := chaosRun(t, func() sched.Scheduler { return sched.NewPLMTF(4, 1) }, script, met)

	if col.FaultsInjected != 2 {
		t.Errorf("FaultsInjected = %d, want 2", col.FaultsInjected)
	}
	if col.RepairEvents < 1 {
		t.Fatalf("RepairEvents = %d, want >= 1 (the failed link carried traffic)", col.RepairEvents)
	}
	if col.FlowsDisrupted < 1 {
		t.Errorf("FlowsDisrupted = %d, want >= 1", col.FlowsDisrupted)
	}
	// Every event — including the minted repair event — completed.
	repairs := 0
	for _, r := range col.Records() {
		if r.Kind == "link-repair" {
			repairs++
			if r.Event < sim.RepairEventIDBase {
				t.Errorf("repair event ID %d below RepairEventIDBase", int64(r.Event))
			}
		}
	}
	if repairs != col.RepairEvents {
		t.Errorf("completed repair events = %d, want %d", repairs, col.RepairEvents)
	}

	// Recovery counters are visible on a /metrics scrape.
	srv := httptest.NewServer(obs.Handler(reg, nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"netupdate_faults_injected_total 2",
		"netupdate_repair_events_total 1",
		"netupdate_links_down 0", // the link-up fired before the run ended
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(text, "netupdate_flows_disrupted_total") {
		t.Error("/metrics missing netupdate_flows_disrupted_total")
	}
}

// capacityCheck fails the test if any link is over capacity or its
// ledger disagrees with the sum of placed flow demands.
func capacityCheck(t *testing.T, net *netstate.Network) {
	t.Helper()
	g := net.Graph()
	perLink := make(map[topology.LinkID]topology.Bandwidth)
	for _, f := range net.Registry().Placed() {
		for _, l := range f.Path().Links() {
			perLink[l] += f.Demand
		}
	}
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(topology.LinkID(i))
		if l.Reserved() > l.Capacity {
			t.Errorf("%v over capacity: reserved %v > cap %v", l, l.Reserved(), l.Capacity)
		}
		if l.Reserved() != perLink[l.ID] {
			t.Errorf("%v ledger %v != placed demand sum %v", l, l.Reserved(), perLink[l.ID])
		}
	}
}

// TestInstallTimeoutRetryThenRollback covers both halves of the timeout
// machinery on a small deterministic run: a survivable timeout count
// delays the event by retries+backoff, while an unsurvivable one rolls
// the event back, restoring the exact pre-event network state.
func TestInstallTimeoutRetryThenRollback(t *testing.T) {
	setup := func() (*sim.Engine, *netstate.Network) {
		ft, err := topology.NewFatTree(4, topology.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		net := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.WidestFit{})
		planner := core.NewPlanner(migration.NewPlanner(net, 0), core.FailSkip)
		eng := sim.NewEngine(planner, sched.FIFO{}, sim.Config{KeepFlows: true})
		return eng, net
	}
	t.Run("retry", func(t *testing.T) {
		// Run the same single-flow event with and without two injected
		// install timeouts; the faulted run must finish later by exactly
		// two extra install passes plus the 25ms+50ms backoff.
		runOne := func(times int) (*core.Event, *metrics.Collector, *netstate.Network) {
			eng, net := setup()
			hosts := hostPair(t, net)
			if times > 0 {
				eng.SetFaults(fault.Script{{At: 0, Action: fault.InstallTimeout, Times: times}})
			}
			ev := core.NewEvent(1, "test", 0, []flow.Spec{{Src: hosts[0], Dst: hosts[1], Demand: 100 * topology.Mbps}})
			col, err := eng.Run([]*core.Event{ev})
			if err != nil {
				t.Fatal(err)
			}
			return ev, col, net
		}
		clean, _, _ := runOne(0)
		ev, col, net := runOne(2)
		if col.InstallRetries != 2 {
			t.Errorf("InstallRetries = %d, want 2", col.InstallRetries)
		}
		if col.InstallRollbacks != 0 {
			t.Errorf("InstallRollbacks = %d, want 0", col.InstallRollbacks)
		}
		wantExtra := 2*10*time.Millisecond + 25*time.Millisecond + 50*time.Millisecond
		if got := ev.ECT() - clean.ECT(); got != wantExtra {
			t.Errorf("retry delay = %v, want %v (2 install passes + capped backoff)", got, wantExtra)
		}
		if !ev.Done || len(ev.FailedSpecs) != 0 {
			t.Errorf("retried event should complete cleanly: done=%v failed=%d", ev.Done, len(ev.FailedSpecs))
		}
		capacityCheck(t, net)
	})

	t.Run("rollback", func(t *testing.T) {
		eng, net := setup()
		hosts := hostPair(t, net)
		eng.SetFaults(fault.Script{{At: 0, Action: fault.InstallTimeout, Event: 1, Times: 10}})
		ev := core.NewEvent(1, "test", 0, []flow.Spec{{Src: hosts[0], Dst: hosts[1], Demand: 100 * topology.Mbps}})
		col, err := eng.Run([]*core.Event{ev})
		if err != nil {
			t.Fatal(err)
		}
		if col.InstallRollbacks != 1 {
			t.Errorf("InstallRollbacks = %d, want 1", col.InstallRollbacks)
		}
		if len(ev.FailedSpecs) != 1 {
			t.Errorf("FailedSpecs = %d, want 1 (all specs failed)", len(ev.FailedSpecs))
		}
		if got := len(net.Registry().Placed()); got != 0 {
			t.Errorf("placed flows after rollback = %d, want 0", got)
		}
		recs := col.Records()
		if len(recs) != 1 || !recs[0].RolledBack || recs[0].Flows != 0 {
			t.Errorf("record = %+v, want rolled-back with 0 flows", recs)
		}
		capacityCheck(t, net)
	})
}

// hostPair returns four distinct hosts of the network's fat-tree graph.
func hostPair(t *testing.T, net *netstate.Network) []topology.NodeID {
	t.Helper()
	hosts := net.Graph().NodesOfKind(topology.KindHost)
	if len(hosts) < 4 {
		t.Fatal("not enough hosts")
	}
	return hosts[:4]
}
