// Package sched implements the inter-event scheduling policies of
// Section IV: FIFO, the full cost reorder ("intrinsic method"), LMTF
// (least migration traffic first) and P-LMTF (parallel LMTF with
// opportunistic co-scheduling), plus the update queue they operate on.
package sched

import (
	"netupdate/internal/core"
)

// Queue is the update queue: events in arrival order. The scheduler reads
// it; the simulator pushes arrivals and removes events chosen for
// execution.
type Queue struct {
	events []*core.Event
}

// NewQueue returns an empty update queue.
func NewQueue() *Queue { return &Queue{} }

// Push appends an event (events arrive in nondecreasing time order).
func (q *Queue) Push(ev *core.Event) {
	q.events = append(q.events, ev)
}

// PushBatch appends events in the given order with one underlying grow —
// the bulk-admission path of the batched ingest pipeline. It is exactly
// equivalent to calling Push on each event in order: arrival order is the
// slice order, and the events' Arrival stamps should be nondecreasing
// like any other arrivals.
func (q *Queue) PushBatch(evs []*core.Event) {
	q.events = append(q.events, evs...)
}

// Len returns the number of queued events.
func (q *Queue) Len() int { return len(q.events) }

// At returns the i-th event in arrival order (0 = head).
func (q *Queue) At(i int) *core.Event { return q.events[i] }

// Head returns the head event, or nil if the queue is empty.
func (q *Queue) Head() *core.Event {
	if len(q.events) == 0 {
		return nil
	}
	return q.events[0]
}

// Remove deletes the given event, preserving the order of the rest.
// It reports whether the event was present. Dropping the head — what
// FIFO does every round — clears its slot and re-slices, in O(1); any
// other slot shifts whichever side of it is shorter.
func (q *Queue) Remove(ev *core.Event) bool {
	for i, e := range q.events {
		if e != ev {
			continue
		}
		n := len(q.events)
		if i < n-1-i {
			copy(q.events[1:i+1], q.events[:i])
			q.events[0] = nil
			q.events = q.events[1:]
		} else {
			copy(q.events[i:], q.events[i+1:])
			q.events[n-1] = nil
			q.events = q.events[:n-1]
		}
		return true
	}
	return false
}

// Events returns a copy of the queue in arrival order.
func (q *Queue) Events() []*core.Event {
	out := make([]*core.Event, len(q.events))
	copy(out, q.events)
	return out
}
