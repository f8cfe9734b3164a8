package ctl

import (
	"path/filepath"
	"testing"
	"time"

	"netupdate/internal/obs"
)

// collectorNumbers are the Stats fields whose metric the collector or
// the live engine also answers.
type collectorNumbers struct {
	EventsDone, EventsQueued, FlowsPlaced, LinksDown  int
	FaultsInjected, RepairEvents, FlowsDisrupted      int
	InstallRetries, InstallRollbacks                  int
	TotalCostBps                                      int64
	AvgECT, TailECT, AvgQueuingDelay, PlanTime, Clock time.Duration
	Utilization                                       float64
}

// registryAndCollector reads both sides on the state loop.
func registryAndCollector(t *testing.T, srv *Server) (reg, col collectorNumbers) {
	t.Helper()
	err := srv.onLoop(func() error {
		st := StatsOf(srv.sample())
		reg = collectorNumbers{st.EventsDone, st.EventsQueued, st.FlowsPlaced, st.LinksDown,
			st.FaultsInjected, st.RepairEvents, st.FlowsDisrupted, st.InstallRetries, st.InstallRollbacks,
			st.TotalCostBps, st.AvgECT, st.TailECT, st.AvgQueuingDelay, st.PlanTime, st.VirtualClock, st.Utilization}
		c, net := srv.engine.Collector(), srv.planner.Network()
		col = collectorNumbers{c.Len(), srv.engine.QueueLen(), net.Registry().NumPlaced(), srv.engine.LinksDown(),
			c.FaultsInjected, c.RepairEvents, c.FlowsDisrupted, c.InstallRetries, c.InstallRollbacks,
			int64(c.TotalCost()), c.AvgECT(), c.TailECT(), c.AvgQueuingDelay(), c.PlanTime, srv.engine.Clock(), net.Utilization()}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg, col
}

// TestRegistryMatchesCollector: every Stats number the registry now
// answers — the ECT and queuing-delay histograms' sum, count and max,
// the cost and plan-time counters, the fault counters, the refreshed
// gauges — equals what the collector and the engine say, through faults
// and checkpoints. A recovered process's collector counts only what that
// process ran (the checkpoint carries the registry, not the collector),
// so after a crash the recovered registry is held to the uncrashed
// server's instead: at the crash point, and again once both ran the rest
// of the workload.
func TestRegistryMatchesCollector(t *testing.T) {
	for _, ckptEvery := range []int{5, -1} {
		dir := filepath.Join(t.TempDir(), "wal")
		crash := filepath.Join(t.TempDir(), "crash")
		srvA, clientA, _, ft := startWALServer(t, dir, ckptEvery)
		work := walWorkload(ft, 9, 6, 4)
		crowdCore(ft, &work[1])
		check := func(srv *Server, when string) {
			t.Helper()
			reg, col := registryAndCollector(t, srv)
			if reg != col {
				t.Errorf("checkpoint every %d, %s:\nregistry  %+v\ncollector %+v", ckptEvery, when, reg, col)
			}
			if reg.EventsDone == 0 {
				t.Errorf("%s: nothing completed", when)
			}
		}
		var atCrash collectorNumbers
		for i, ch := range work {
			playChunk(t, clientA, ch)
			check(srvA, "live")
			if i == 2 {
				copyDir(t, dir, crash)
				atCrash, _ = registryAndCollector(t, srvA)
			}
		}
		srvB, clientB, _, _ := startWALServer(t, crash, ckptEvery)
		recovered := func(want collectorNumbers, when string) {
			t.Helper()
			if reg, _ := registryAndCollector(t, srvB); reg != want {
				t.Errorf("checkpoint every %d, %s:\nrecovered %+v\nuncrashed %+v", ckptEvery, when, reg, want)
			}
		}
		recovered(atCrash, "recovered")
		for _, ch := range work[3:] {
			playChunk(t, clientB, ch)
		}
		uncrashed, _ := registryAndCollector(t, srvA)
		recovered(uncrashed, "after recovery")
		if uncrashed.TotalCostBps == 0 || uncrashed.FaultsInjected == 0 {
			t.Errorf("workload never migrated or faulted: %+v", uncrashed)
		}
	}
}

// TestStatsRoleDecoding: the role enum in the Stats tag spells the
// journal's role codes.
func TestStatsRoleDecoding(t *testing.T) {
	for role, code := range roleCode {
		s := obs.Sample{{Name: "netupdate_repl_role", Value: obs.Value{Type: obs.TypeGauge, Int: code}}}
		if got := StatsOf(s).ReplRole; got != role {
			t.Errorf("role code %d decodes to %q, want %q", code, got, role)
		}
	}
}

// TestMetricsOpOverBothCodecs: OpMetrics ships the sample OpStats
// decodes, over JSON and binary framing alike, and is answered with the
// stats a remote gateway would compute from it.
func TestMetricsOpOverBothCodecs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	srv, client, _, ft := startWALServer(t, dir, -1)
	playChunk(t, client, walWorkload(ft, 4, 1, 3)[0])
	for _, dial := range []func(string) (*Client, error){Dial, DialBinary} {
		c, err := dial(client.conn.RemoteAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		resp := c.Do(Request{Op: OpMetrics})
		if !resp.OK || resp.Metrics == nil {
			t.Fatalf("metrics: %+v", resp)
		}
		want, err := srv.Stats()
		if err != nil {
			t.Fatal(err)
		}
		got := StatsOf(resp.Metrics)
		// Each request decodes one more frame than the last read saw.
		got.FramesV1, got.FramesV2, want.FramesV1, want.FramesV2 = 0, 0, 0, 0
		if *got != want {
			t.Errorf("stats from the shipped sample differ:\ngot  %+v\nwant %+v", *got, want)
		}
	}
}
