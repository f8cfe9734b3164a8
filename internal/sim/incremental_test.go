package sim

import (
	"testing"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/flow"
	"netupdate/internal/sched"
	"netupdate/internal/topology"
)

// TestIncrementalEnqueueStep drives the engine through the Enqueue/Step
// API the live controller uses.
func TestIncrementalEnqueueStep(t *testing.T) {
	planner, ft := newPlanner(t)
	eng := NewEngine(planner, sched.FIFO{}, cleanConfig())

	if eng.QueueLen() != 0 || eng.Clock() != 0 {
		t.Fatal("fresh engine not idle")
	}
	if did, err := eng.Step(); err != nil || did {
		t.Fatalf("Step on empty queue = %v,%v", did, err)
	}

	hosts := ft.Hosts()
	ev1 := core.NewEvent(1, "inc", eng.Clock(), []flow.Spec{
		{Src: hosts[0], Dst: hosts[1], Demand: topology.Mbps},
	})
	ev2 := core.NewEvent(2, "inc", eng.Clock(), []flow.Spec{
		{Src: hosts[2], Dst: hosts[3], Demand: topology.Mbps},
		{Src: hosts[4], Dst: hosts[5], Demand: topology.Mbps},
	})
	eng.Enqueue(ev1)
	eng.Enqueue(ev2)
	if eng.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d, want 2", eng.QueueLen())
	}

	if did, err := eng.Step(); err != nil || !did {
		t.Fatalf("first Step = %v,%v", did, err)
	}
	if !ev1.Done || ev2.Done {
		t.Fatal("FIFO must complete ev1 first")
	}
	within(t, "clock after ev1", eng.Clock(), time.Second, time.Millisecond)

	if did, err := eng.Step(); err != nil || !did {
		t.Fatalf("second Step = %v,%v", did, err)
	}
	if !ev2.Done {
		t.Fatal("ev2 not done after second step")
	}
	within(t, "clock after ev2", eng.Clock(), 3*time.Second, time.Millisecond)
	if eng.QueueLen() != 0 {
		t.Errorf("QueueLen = %d after draining", eng.QueueLen())
	}
	if got := eng.Collector().Len(); got != 2 {
		t.Errorf("collector recorded %d events, want 2", got)
	}
	// A late arrival stamps its queuing delay from the virtual now.
	ev3 := core.NewEvent(3, "inc", eng.Clock(), []flow.Spec{
		{Src: hosts[6], Dst: hosts[7], Demand: topology.Mbps},
	})
	eng.Enqueue(ev3)
	if _, err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	if got := ev3.QueuingDelay(); got != 0 {
		t.Errorf("late arrival queuing delay = %v, want 0", got)
	}
}
