package sched

import (
	"math/rand"
	"testing"

	"netupdate/internal/core"
	"netupdate/internal/flow"
)

func mkEvents(n int) []*core.Event {
	out := make([]*core.Event, n)
	for i := range out {
		out[i] = core.NewEvent(flow.EventID(i+1), "test", 0, nil)
	}
	return out
}

func TestQueueOrder(t *testing.T) {
	q := NewQueue()
	if q.Head() != nil {
		t.Error("empty queue Head != nil")
	}
	evs := mkEvents(3)
	for _, ev := range evs {
		q.Push(ev)
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	if q.Head() != evs[0] {
		t.Error("Head != first pushed")
	}
	for i, ev := range evs {
		if q.At(i) != ev {
			t.Errorf("At(%d) != pushed order", i)
		}
	}
}

func TestQueueRemove(t *testing.T) {
	q := NewQueue()
	evs := mkEvents(4)
	for _, ev := range evs {
		q.Push(ev)
	}
	if !q.Remove(evs[1]) {
		t.Fatal("Remove returned false for present event")
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d after remove, want 3", q.Len())
	}
	want := []*core.Event{evs[0], evs[2], evs[3]}
	for i, ev := range want {
		if q.At(i) != ev {
			t.Errorf("At(%d) wrong after remove", i)
		}
	}
	if q.Remove(evs[1]) {
		t.Error("Remove returned true for absent event")
	}
}

func TestQueueEventsIsCopy(t *testing.T) {
	q := NewQueue()
	evs := mkEvents(2)
	for _, ev := range evs {
		q.Push(ev)
	}
	cp := q.Events()
	cp[0] = nil
	if q.At(0) != evs[0] {
		t.Error("mutating Events() copy changed the queue")
	}
}

// TestQueueRemoveMatchesSliceModel: under seeded runs of Push, PushBatch
// and Remove — of the head, the tail, a middle slot and an absent event —
// the queue answers Len, At, Head, Events and Remove's result exactly as
// a plain slice does, whichever side of the removed slot the queue shifts.
func TestQueueRemoveMatchesSliceModel(t *testing.T) {
	absent := mkEvents(1)[0]
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := NewQueue()
		var model []*core.Event
		next := 1
		mk := func() *core.Event {
			ev := core.NewEvent(flow.EventID(next), "test", 0, nil)
			next++
			return ev
		}
		for step := 0; step < 500; step++ {
			var what string
			switch r := rng.Intn(10); {
			case r < 2:
				what = "push"
				ev := mk()
				q.Push(ev)
				model = append(model, ev)
			case r < 4:
				what = "push batch"
				evs := make([]*core.Event, rng.Intn(5))
				for i := range evs {
					evs[i] = mk()
				}
				q.PushBatch(evs)
				model = append(model, evs...)
			default:
				i := -1 // absent
				switch r {
				case 4, 5, 6:
					what = "remove head"
					i = 0
				case 7:
					what = "remove tail"
					i = len(model) - 1
				case 8:
					what = "remove middle"
					if len(model) > 0 {
						i = rng.Intn(len(model))
					}
				default:
					what = "remove absent"
				}
				ev := absent
				if i >= 0 && i < len(model) {
					ev = model[i]
					model = append(model[:i:i], model[i+1:]...)
				} else {
					i = -1
				}
				if got := q.Remove(ev); got != (i >= 0) {
					t.Fatalf("seed %d step %d (%s): Remove = %v, want %v", seed, step, what, got, i >= 0)
				}
			}
			if q.Len() != len(model) {
				t.Fatalf("seed %d step %d (%s): Len = %d, model %d", seed, step, what, q.Len(), len(model))
			}
			var head *core.Event
			if len(model) > 0 {
				head = model[0]
			}
			if q.Head() != head {
				t.Fatalf("seed %d step %d (%s): Head = %v, model %v", seed, step, what, q.Head(), head)
			}
			evs := q.Events()
			if len(evs) != len(model) {
				t.Fatalf("seed %d step %d (%s): Events has %d, model %d", seed, step, what, len(evs), len(model))
			}
			for i, want := range model {
				if q.At(i) != want || evs[i] != want {
					t.Fatalf("seed %d step %d (%s): index %d diverged from the model", seed, step, what, i)
				}
			}
		}
	}
}
