package experiments

import (
	"net"
	"testing"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/obs"
	"netupdate/internal/sched"
	"netupdate/internal/shard"
)

// TestDaemonReproducesFig6Row: the daemon, built through shard.NewWorld
// and fed over the wire, computes Fig 6's 30-event row bit for bit. The
// figure and the daemon stand on one genesis and run one engine, so the
// same seed and the same events give the same ECTs, cost, plan time and
// rounds under every compared scheduler.
func TestDaemonReproducesFig6Row(t *testing.T) {
	const (
		k, util, nEvents         = 8, 0.6, 30
		minFlows, maxFlows       = 10, 100
		alpha                    = 4
		seed               int64 = 1*1000 + 600 + 2 // Fig6(Options{Seed: 1}), point i = 2
	)
	env, err := NewEnv(Setup{K: k, Utilization: util, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	// Spelled out rather than ctl.SpecOf, so this file also runs
	// unmodified on trees without it.
	var specs []ctl.EventSpec
	for _, ev := range env.Gen.Events(nEvents, minFlows, maxFlows) {
		spec := ctl.EventSpec{Kind: ev.Kind}
		for _, s := range ev.Specs {
			spec.Flows = append(spec.Flows, ctl.FlowSpec{
				Src: int(s.Src), Dst: int(s.Dst), DemandBps: int64(s.Demand), SizeBytes: s.Size,
			})
		}
		specs = append(specs, spec)
	}

	for _, tc := range []struct {
		name string
		mk   func() sched.Scheduler // as Fig6 constructs it
	}{
		{"fifo", func() sched.Scheduler { return sched.FIFO{} }},
		{"lmtf", func() sched.Scheduler { return sched.NewLMTF(alpha, seed) }},
		{"p-lmtf", func() sched.Scheduler { return sched.NewPLMTF(alpha, seed) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			met := obs.NewSimMetrics(obs.NewRegistry())
			setup := Setup{K: k, Utilization: util, Seed: seed, Tracer: obs.NewTracer(nil, met)}
			col, err := runScheduler(setup, tc.mk, nEvents, minFlows, maxFlows)
			if err != nil {
				t.Fatal(err)
			}
			want := ctl.Stats{
				EventsDone: nEvents, TotalCostBps: int64(col.TotalCost()),
				AvgECT: col.AvgECT(), TailECT: col.TailECT(),
				PlanTime: col.PlanTime, Rounds: met.Rounds.Value(),
			}

			w, err := shard.NewWorld(shard.WorldConfig{
				K: k, Util: util, Scheduler: tc.name, Alpha: alpha, Seed: seed,
			}, 0)
			if err != nil {
				t.Fatal(err)
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go func() { _ = w.Server.Serve(l) }()
			defer w.Server.Close()
			c, err := ctl.DialBinary(l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			verdicts, _, err := c.SubmitBatch(specs)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range verdicts {
				if !v.OK {
					t.Fatalf("event %d refused: %s", i, v.Error)
				}
				if _, err := c.WaitDone(v.EventID, time.Minute); err != nil {
					t.Fatal(err)
				}
			}
			st, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			got := ctl.Stats{
				EventsDone: st.EventsDone, TotalCostBps: st.TotalCostBps,
				AvgECT: st.AvgECT, TailECT: st.TailECT,
				PlanTime: st.PlanTime, Rounds: st.Rounds,
			}
			if got != want {
				t.Errorf("daemon row differs from the figure's:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}
