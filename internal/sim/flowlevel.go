package sim

import (
	"fmt"
	"sort"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/metrics"
	"netupdate/internal/topology"
)

// FlowLevel simulates the baseline the paper argues against (Figs. 2, 4
// and 5): flows are scheduled individually, with no notion of events. The
// controller serves one flow at a time, round-robin across all events
// currently in the system (the per-flow fair order of Fig. 2a), so the
// flows of concurrent events interleave and every event's completion drags
// until its last straggler flow is installed.
type FlowLevel struct {
	cfg       Config
	planner   *core.Planner
	clock     time.Duration
	releases  releaseHeap
	collector *metrics.Collector
}

// NewFlowLevel builds a flow-level baseline runner.
func NewFlowLevel(planner *core.Planner, cfg Config) *FlowLevel {
	return &FlowLevel{
		cfg:       cfg.withDefaults(),
		planner:   planner,
		collector: metrics.NewCollector(),
	}
}

// flState tracks one event's progress through the flow-level scheduler.
type flState struct {
	ev       *core.Event
	next     int // index of the next spec to serve
	admitted int
	failed   int
	cost     topology.Bandwidth
	planned  int
	lastDone time.Duration // completion of the event's latest flow
}

// Run simulates the events to completion under flow-level scheduling.
func (e *FlowLevel) Run(events []*core.Event) (*metrics.Collector, error) {
	pending := make([]*core.Event, len(events))
	copy(pending, events)
	sort.SliceStable(pending, func(i, j int) bool {
		return pending[i].Arrival < pending[j].Arrival
	})

	var active []*flState
	rr := 0 // round-robin cursor over active events

	for len(pending) > 0 || len(active) > 0 {
		// Admit arrived events.
		for len(pending) > 0 && pending[0].Arrival <= e.clock {
			active = append(active, &flState{ev: pending[0]})
			pending = pending[1:]
		}
		if len(active) == 0 {
			e.processReleases(pending[0].Arrival)
			e.clock = pending[0].Arrival
			continue
		}

		// Serve one flow from the next event in round-robin order.
		if rr >= len(active) {
			rr = 0
		}
		st := active[rr]
		if err := e.serveOne(st); err != nil {
			return nil, err
		}

		if st.next >= len(st.ev.Specs) {
			e.finish(st)
			active = append(active[:rr], active[rr+1:]...)
			// rr now points at the next event already.
		} else {
			rr++
		}
	}
	e.processReleases(1<<62 - 1)
	e.collector.Makespan = e.clock
	return e.collector, nil
}

// serveOne admits and installs the next flow of st's event, advancing the
// clock by the planning, migration and install time it costs.
func (e *FlowLevel) serveOne(st *flState) error {
	net := e.planner.Network()
	spec := st.ev.Specs[st.next]
	st.next++

	if !st.ev.Started {
		st.ev.Started = true
		st.ev.Start = e.clock
	}

	f, err := net.AddFlow(spec)
	if err != nil {
		return fmt.Errorf("sim: flow-level register: %w", err)
	}
	res, admitErr := e.planner.Migration().Admit(f)
	if res != nil {
		st.planned += res.Evals
		e.collector.PlanTime += e.cfg.planTime(res.Evals)
	}
	e.processReleases(e.clock)
	if admitErr != nil {
		st.failed++
		st.ev.FailedSpecs = append(st.ev.FailedSpecs, spec)
		if rmErr := net.Remove(f); rmErr != nil {
			return fmt.Errorf("sim: flow-level cleanup: %w", rmErr)
		}
		return nil
	}

	st.cost += res.MigratedTraffic
	st.ev.CostAtExec += res.MigratedTraffic
	st.ev.Flows = append(st.ev.Flows, f)
	st.admitted++

	e.clock += e.cfg.migrationTime(res.MigratedTraffic) +
		installDuration(e.cfg, net.Graph(), res)
	if !e.cfg.KeepFlows {
		e.releases.push(release{at: e.clock + f.TransferTime(), f: f})
	}
	st.lastDone = e.clock
	e.processReleases(e.clock)
	return nil
}

// finish records a completed event.
func (e *FlowLevel) finish(st *flState) {
	ev := st.ev
	completion := st.lastDone
	if completion < e.clock {
		completion = e.clock
	}
	ev.Completion = completion
	ev.Done = true
	e.collector.Add(metrics.EventRecord{
		Event:      ev.ID,
		Kind:       ev.Kind,
		Flows:      st.admitted,
		Failed:     st.failed,
		Arrival:    ev.Arrival,
		Start:      ev.Start,
		Completion: completion,
		Cost:       st.cost,
		PlanEvals:  st.planned,
	})
}

// processReleases removes flows whose transfers completed by t.
func (e *FlowLevel) processReleases(t time.Duration) {
	for len(e.releases) > 0 && e.releases[0].at <= t {
		rel := e.releases.pop()
		if err := e.planner.Network().Remove(rel.f); err != nil {
			panic(fmt.Sprintf("sim: flow-level release: %v", err))
		}
	}
}
