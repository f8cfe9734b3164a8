package ctl

import (
	"netupdate/internal/metrics"
	"netupdate/internal/obs"
)

// doneWindow is how many completed events the server remembers one by
// one; older completions survive only in the registry's counters and
// histograms, which every completion fed and a checkpoint carries. Sized
// for the heaviest arrival rate the benchmark offers (≈ 1 k events/s):
// a client may poll a completion's status 8 s late and still find it,
// at ≈ 1 MB of records in memory and ≈ 1.5 MB in every checkpoint.
const doneWindow = 8192

// doneRing holds the records of the most recent completions, oldest
// overwritten first. State-loop confined like the event table it
// complements: an event is in Server.events until its round completes
// it and in the ring from then on.
type doneRing struct {
	window int
	// recs grows to window records and then wraps: head is the oldest
	// record's slot, the one the next completion overwrites.
	recs []metrics.EventRecord
	head int
	slot map[int64]int // retained event ID -> slot in recs

	retained *obs.Gauge
}

func newDoneRing(window int, reg *obs.Registry) *doneRing {
	if window <= 0 {
		window = doneWindow
	}
	return &doneRing{
		window:   window,
		slot:     make(map[int64]int),
		retained: reg.NewGauge("netupdate_events_retained", "Completed events still held as records (the done window's occupancy).", obs.MergeSum),
	}
}

// push retires one completion into the window, evicting the oldest
// record once the window is full.
func (d *doneRing) push(r metrics.EventRecord) {
	if len(d.recs) < d.window {
		d.slot[int64(r.Event)] = len(d.recs)
		d.recs = append(d.recs, r)
		d.retained.Set(int64(len(d.recs)))
		return
	}
	delete(d.slot, int64(d.recs[d.head].Event))
	d.recs[d.head] = r
	d.slot[int64(r.Event)] = d.head
	d.head = (d.head + 1) % d.window
}

// get returns the retained record of a completed event.
func (d *doneRing) get(id int64) (metrics.EventRecord, bool) {
	i, ok := d.slot[id]
	if !ok {
		return metrics.EventRecord{}, false
	}
	return d.recs[i], true
}

// len is the window's occupancy.
func (d *doneRing) len() int { return len(d.recs) }

// ordered returns the retained records in completion order, oldest
// first, as a fresh slice.
func (d *doneRing) ordered() []metrics.EventRecord {
	out := make([]metrics.EventRecord, 0, len(d.recs))
	out = append(out, d.recs[d.head:]...)
	return append(out, d.recs[:d.head]...)
}

// step runs one scheduling round and retires what it completed. Every
// path that advances the engine comes through here — the live loop and,
// through stepUntil, crash replay, the follower fold and the promotion
// drain — so no copy of the state keeps history the others dropped.
func (s *Server) step() (bool, error) {
	worked, err := s.engine.Step()
	s.retire()
	return worked, err
}

// retire moves the records the collector gained into the done window and
// drops their events from the event table — and with each *core.Event
// its specs and the flow objects only it kept alive. The registry
// counted them when they completed.
func (s *Server) retire() {
	for _, r := range s.engine.Collector().Drain() {
		delete(s.events, int64(r.Event))
		s.done.push(r)
	}
}

// doneStatus renders a completed event's status from its record.
func doneStatus(r metrics.EventRecord) EventStatus {
	return EventStatus{
		EventID:      int64(r.Event),
		State:        StateDone,
		Kind:         r.Kind,
		Flows:        r.Flows + r.Failed,
		Admitted:     r.Flows,
		Failed:       r.Failed,
		CostBps:      int64(r.Cost),
		QueuingDelay: r.QueuingDelay(),
		ECT:          r.ECT(),
	}
}
