package sim

import (
	"fmt"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/fault"
	"netupdate/internal/flow"
	"netupdate/internal/obs"
)

// RepairEventIDBase is where the engine starts minting IDs for repair
// events (failures converted into update events). It sits far above any
// workload or ctl-submitted event ID, so repair events can never collide.
const RepairEventIDBase flow.EventID = 1 << 40

// FaultOutcome reports what one applied injection did to the run.
type FaultOutcome struct {
	// Action is the injected fault kind.
	Action fault.Action
	// LinksChanged counts links whose up/down state actually flipped.
	LinksChanged int
	// FlowsAffected counts placed flows the failure withdrew.
	FlowsAffected int
	// RepairEvent is the update event minted to re-admit the withdrawn
	// flows (nil when the failure disrupted nothing).
	RepairEvent *core.Event
	// LinksDown is the number of failed links after the injection.
	LinksDown int
}

// timeoutArm is one armed install-timeout injection waiting for its event.
type timeoutArm struct {
	// event targets a specific event ID; 0 matches the next event to
	// execute after the arm fires.
	event flow.EventID
	// times is how many consecutive install attempts will time out.
	times int
}

// SetFaults attaches a scripted fault injector to the run. The script is
// replayed against the virtual clock: Run (and Step) apply every due
// injection before scheduling, so the same script and workload always
// perturb the schedule at the same points — the determinism the chaos
// harness relies on. Call before Run.
func (e *Engine) SetFaults(script fault.Script) {
	e.injector = fault.NewInjector(script)
}

// applyDueFaults fires every scripted injection due at the current clock.
func (e *Engine) applyDueFaults() error {
	if e.injector == nil {
		return nil
	}
	for _, inj := range e.injector.Due(e.clock) {
		if _, err := e.InjectFault(inj); err != nil {
			return err
		}
	}
	return nil
}

// InjectFault applies one fault injection to the running schedule at the
// current virtual time. Link and switch failures withdraw the placed
// flows crossing the dead links and convert them into a repair update
// event queued through the normal scheduling path (the paper's
// event abstraction: a failure IS an update event). Install timeouts
// arm the retry/rollback machinery in runLane. The ctl server calls this
// directly for operator-driven injection; scripted runs go through
// SetFaults.
func (e *Engine) InjectFault(inj fault.Injection) (*FaultOutcome, error) {
	net := e.planner.Network()
	g := net.Graph()
	if err := inj.Validate(g.NumNodes(), g.NumLinks()); err != nil {
		return nil, fmt.Errorf("sim: inject: %w", err)
	}
	out := &FaultOutcome{Action: inj.Action}

	switch inj.Action {
	case fault.LinkDown, fault.SwitchDown:
		links, kind := inj.TargetLinks(g)
		affected, changed := net.FailLinks(links)
		out.LinksChanged = changed
		out.FlowsAffected = len(affected)
		if len(affected) > 0 {
			out.RepairEvent = e.mintRepairEvent(kind, affected)
		}
	case fault.LinkUp, fault.SwitchUp:
		links, _ := inj.TargetLinks(g)
		out.LinksChanged = net.RestoreLinks(links)
	case fault.InstallTimeout:
		times := inj.Times
		if times == 0 {
			times = 1
		}
		e.timeouts = append(e.timeouts, timeoutArm{event: flow.EventID(inj.Event), times: times})
	}

	out.LinksDown = g.NumLinksDown()
	e.collector.FaultsInjected++
	e.collector.FlowsDisrupted += out.FlowsAffected
	if out.RepairEvent != nil {
		e.collector.RepairEvents++
	}
	if e.obs != nil {
		rec := obs.FaultRecord{
			Action:        string(inj.Action),
			Link:          inj.Link,
			Node:          inj.Node,
			FlowsAffected: out.FlowsAffected,
			LinksDown:     out.LinksDown,
			Times:         inj.Times,
		}
		if out.RepairEvent != nil {
			rec.RepairEvent = int64(out.RepairEvent.ID)
		}
		e.obs.Fault(int64(e.clock), rec)
	}
	return out, nil
}

// mintRepairEvent withdraws the disrupted flows and queues an update
// event that re-admits them. The flows route around the dead links when
// the event executes because a down link has zero residual.
func (e *Engine) mintRepairEvent(kind string, affected []*flow.Flow) *core.Event {
	specs := make([]flow.Spec, 0, len(affected))
	for _, f := range affected {
		specs = append(specs, flow.Spec{Src: f.Src, Dst: f.Dst, Demand: f.Demand, Size: f.Size})
		e.dropFlow(f)
	}
	e.repairSeq++
	ev := core.NewEvent(RepairEventIDBase+flow.EventID(e.repairSeq), kind, e.clock, specs)
	e.queue.Push(ev)
	e.traceArrival(ev)
	return ev
}

// dropFlow withdraws and deletes a flow disrupted by a failure, and marks
// it so a release already scheduled for it becomes a no-op instead of a
// double-remove.
func (e *Engine) dropFlow(f *flow.Flow) {
	if err := e.planner.Network().Remove(f); err != nil {
		panic(fmt.Sprintf("sim: dropping disrupted flow: %v", err))
	}
	if e.dropped == nil {
		e.dropped = make(map[flow.ID]struct{})
	}
	e.dropped[f.ID] = struct{}{}
}

// takeTimeout consumes the first armed install-timeout matching the event
// (a specific arm wins over a wildcard) and returns how many install
// attempts must fail, 0 when none is armed.
func (e *Engine) takeTimeout(id flow.EventID) int {
	match := -1
	for i, arm := range e.timeouts {
		if arm.event == id {
			match = i
			break
		}
		if arm.event == 0 && match < 0 {
			match = i
		}
	}
	if match < 0 {
		return 0
	}
	times := e.timeouts[match].times
	e.timeouts = append(e.timeouts[:match], e.timeouts[match+1:]...)
	return times
}

// nextFaultAt returns the virtual time of the next unfired scripted
// injection, if any.
func (e *Engine) nextFaultAt() (time.Duration, bool) {
	if e.injector == nil {
		return 0, false
	}
	return e.injector.NextAt()
}

// LinksDown reports the number of currently failed links.
func (e *Engine) LinksDown() int {
	return e.planner.Network().Graph().NumLinksDown()
}
