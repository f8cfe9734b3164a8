package sim

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/flow"
)

// This file is the engine's checkpoint surface: everything the WAL
// recovery path needs to freeze an engine mid-run and thaw an identical
// one in a new process. The network itself (graph, flows, reservations)
// is carried by a snapshot; EngineState covers the rest — clock, round
// count, scheduled releases, armed timeouts, repair numbering, and the
// probe-counter baseline.

// ReleaseState is one scheduled flow release. Flow is the index of the
// flow in registry order (flow.Registry.All(), which is ID-sorted) —
// the same order snapshot.Capture serializes flows in, so a restored
// release resolves to the restored flow at the same position.
type ReleaseState struct {
	Flow int   `json:"flow"`
	AtNs int64 `json:"at_ns"`
}

// TimeoutState is one armed install-timeout injection.
type TimeoutState struct {
	Event int64 `json:"event"`
	Times int   `json:"times"`
}

// ProbeBase carries the probe totals accumulated before a checkpoint. A
// recovered planner counts from zero; syncProbeStats adds this baseline
// back, keeping the collector's run totals continuous across restarts.
type ProbeBase struct {
	Probes     int   `json:"probes"`
	WallTimeNs int64 `json:"wall_time_ns"`
}

// UnmarshalJSON also reads checkpoints written while probes went through
// a cache: those split the total into "hits" and "misses" (their other
// probe keys are ignored).
func (b *ProbeBase) UnmarshalJSON(data []byte) error {
	var doc struct {
		Probes     int   `json:"probes"`
		Hits       int   `json:"hits"`
		Misses     int   `json:"misses"`
		WallTimeNs int64 `json:"wall_time_ns"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	*b = ProbeBase{Probes: doc.Probes + doc.Hits + doc.Misses, WallTimeNs: doc.WallTimeNs}
	return nil
}

// EngineState is the engine's checkpointable run state.
type EngineState struct {
	ClockNs   int64          `json:"clock_ns"`
	Rounds    int64          `json:"rounds"`
	RepairSeq int64          `json:"repair_seq"`
	Releases  []ReleaseState `json:"releases,omitempty"`
	Timeouts  []TimeoutState `json:"timeouts,omitempty"`
	Probe     ProbeBase      `json:"probe"`
}

// Rounds returns the number of completed scheduling rounds. The clock
// only advances inside rounds, so for a fixed admitted-input history
// the pair (rounds, clock) is a pure function of the round count —
// which is what lets WAL replay reproduce admission timing exactly by
// stepping the engine to each record's round stamp.
func (e *Engine) Rounds() int64 { return e.rounds }

// QueueEvents returns the queued events in queue order (shared event
// pointers; callers only read).
func (e *Engine) QueueEvents() []*core.Event { return e.queue.Events() }

// ExportState captures the engine's run state for a checkpoint.
// Releases for flows already withdrawn by faults are omitted together
// with their dropped-marks: the pair cancels to a no-op, and the
// withdrawn flow has no index in the snapshot to point at.
func (e *Engine) ExportState() EngineState {
	st := EngineState{
		ClockNs:   int64(e.clock),
		Rounds:    e.rounds,
		RepairSeq: e.repairSeq,
		Probe: ProbeBase{
			Probes:     e.collector.Probes,
			WallTimeNs: int64(e.collector.ProbeWallTime),
		},
	}
	index := make(map[flow.ID]int)
	for i, f := range e.planner.Network().Registry().All() {
		index[f.ID] = i
	}
	for _, rel := range e.releases {
		if _, gone := e.dropped[rel.f.ID]; gone {
			continue
		}
		i, ok := index[rel.f.ID]
		if !ok {
			panic(fmt.Sprintf("sim: release for unregistered flow %v", rel.f))
		}
		st.Releases = append(st.Releases, ReleaseState{Flow: i, AtNs: int64(rel.at)})
	}
	// The heap is iterated in storage order; sort for a canonical
	// checkpoint (push on restore re-establishes the invariant).
	sort.Slice(st.Releases, func(i, j int) bool {
		if st.Releases[i].AtNs != st.Releases[j].AtNs {
			return st.Releases[i].AtNs < st.Releases[j].AtNs
		}
		return st.Releases[i].Flow < st.Releases[j].Flow
	})
	for _, arm := range e.timeouts {
		st.Timeouts = append(st.Timeouts, TimeoutState{Event: int64(arm.event), Times: arm.times})
	}
	return st
}

// RestoreState thaws a checkpointed run state into a freshly built
// engine. flows is the restored flow list in snapshot (= registry)
// order, used to resolve release indices. The engine must not have run
// yet. Call before RestoreQueue and before the first Step.
func (e *Engine) RestoreState(st EngineState, flows []*flow.Flow) error {
	if e.rounds != 0 || e.clock != 0 || e.queue.Len() != 0 {
		return fmt.Errorf("sim: RestoreState on an engine that already ran")
	}
	e.clock = time.Duration(st.ClockNs)
	e.rounds = st.Rounds
	e.repairSeq = st.RepairSeq
	for _, rel := range st.Releases {
		if rel.Flow < 0 || rel.Flow >= len(flows) {
			return fmt.Errorf("sim: release references flow index %d of %d", rel.Flow, len(flows))
		}
		e.releases.push(release{at: time.Duration(rel.AtNs), f: flows[rel.Flow]})
	}
	for _, arm := range st.Timeouts {
		e.timeouts = append(e.timeouts, timeoutArm{event: flow.EventID(arm.Event), times: arm.Times})
	}
	e.probeBase = st.Probe
	// Publish the baseline immediately so a scrape between recovery and
	// the first round already sees continuous probe totals.
	e.syncProbeStats()
	return nil
}

// RestoreQueue refills the update queue with checkpointed events, in
// order, without emitting arrival trace records — the arrivals were
// traced when the events were first admitted; a restart must not tell
// the story twice.
func (e *Engine) RestoreQueue(evs []*core.Event) {
	if len(evs) == 0 {
		return
	}
	e.queue.PushBatch(evs)
}
