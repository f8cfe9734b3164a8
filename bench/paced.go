package main

import (
	"sort"
	"time"

	"netupdate/internal/ctl"
)

// watched is one accepted event the watcher follows to completion.
type watched struct {
	id  int64
	due time.Time
	ack time.Duration
}

// pacedResult is the open loop's raw outcome.
type pacedResult struct {
	offered, accepted int
	// sampled events are every sampleEvery-th event offered; inLimit
	// counts those accepted with ack and done inside their limits.
	sampled, inLimit       int
	ackMs, doneMs, statsMs []float64 // per accepted event / watched event / Stats read
	requests               int
	// A request can leave late for two reasons. The harness's own share
	// (late*) is the delay past the moment it could have been sent: its
	// due time, or the previous answer when that came later. The rest
	// (backlogMaxMs) is the system's: connection 1 is synchronous, so a
	// stalled answer holds every following request back, and that wait
	// is charged to their latencies, as an open loop must.
	lateMaxMs     float64
	lateOverLimit int // requests the harness delayed by more than doneLimit
	backlogMaxMs  float64
	lagMax        int64
}

// runPaced offers events on the schedule dues (one request of w.group
// events per due time) from connection 1, while connection 2 polls the
// watched events to completion and issues the Stats reads. It is an
// open loop: a request is sent at its due time however slow the
// previous answer was, and every latency is taken from the due time,
// so a stall is charged to every request it delays.
func runPaced(d *deployment, w *workload, dues []time.Duration, events []ctl.EventSpec, o *ops) *pacedResult {
	pr := &pacedResult{requests: len(dues)}
	pr.ackMs = make([]float64, 0, len(events))
	pr.doneMs = make([]float64, 0, len(events)/w.sampleEvery+1)

	// The generator never blocks on the watcher: the channel holds every
	// event the phase can produce.
	toWatch := make(chan watched, len(events))
	watcherDone := make(chan struct{})
	start := time.Now().Add(10 * time.Millisecond)
	go func() {
		defer close(watcherDone)
		pr.watch(d, w, toWatch, o)
	}()

	free := start // when connection 1 became free to send
	for i, off := range dues {
		due := start.Add(off)
		time.Sleep(time.Until(due))
		sendable := due
		if free.After(due) {
			sendable = free
		}
		late := time.Since(sendable)
		pr.lateMaxMs = max(pr.lateMaxMs, ms(late))
		if late > doneLimit {
			pr.lateOverLimit++
		}
		pr.backlogMaxMs = max(pr.backlogMaxMs, ms(sendable.Sub(due)))
		batch := events[i*w.group : (i+1)*w.group]
		o.attempted.Add(int64(len(batch)))
		verdicts, _, err := d.c1.SubmitBatch(batch)
		free = time.Now()
		ack := free.Sub(due)
		for j := range batch {
			idx := pr.offered
			pr.offered++
			isSample := idx%w.sampleEvery == 0
			if isSample {
				pr.sampled++
			}
			if err != nil || !verdicts[j].OK {
				o.failed.Add(1)
				continue
			}
			pr.accepted++
			pr.ackMs = append(pr.ackMs, ms(ack))
			if isSample {
				toWatch <- watched{id: verdicts[j].EventID, due: due, ack: ack}
			}
		}
	}
	close(toWatch)
	<-watcherDone
	return pr
}

// watch is the reader side: it sweeps Status over the outstanding
// watched events (200 µs pause per sweep) and issues one Stats every
// 1/statsHz seconds, until the generator has finished and every watched
// event completed (or a 10 s grace ran out; the rest count as misses).
func (pr *pacedResult) watch(d *deployment, w *workload, in <-chan watched, o *ops) {
	var outstanding []watched
	statsEvery := time.Duration(float64(time.Second) / w.statsHz)
	nextStats := time.Now().Add(statsEvery)
	var grace time.Time
	for open := true; open || len(outstanding) > 0; {
		for more := open; more; {
			select {
			case ev, ok := <-in:
				if !ok {
					open, more = false, false
					grace = time.Now().Add(10 * time.Second)
					break
				}
				outstanding = append(outstanding, ev)
			default:
				more = false
			}
		}
		if !open && time.Now().After(grace) {
			return
		}
		if open && !time.Now().Before(nextStats) {
			t0 := time.Now()
			o.attempted.Add(1)
			if _, err := d.c2.Stats(); err != nil {
				o.failed.Add(1)
			} else {
				pr.statsMs = append(pr.statsMs, ms(time.Since(t0)))
			}
			nextStats = nextStats.Add(statsEvery)
			if w.follower {
				pr.lagMax = max(pr.lagMax, d.counter("netupdate_repl_lag_records"))
			}
		}
		keep := outstanding[:0]
		for _, ev := range outstanding {
			o.attempted.Add(1)
			st, err := d.c2.Status(ev.id)
			switch {
			case err != nil || st.State == ctl.StateUnknown:
				o.failed.Add(1)
			case st.State == ctl.StateDone:
				done := time.Since(ev.due)
				pr.doneMs = append(pr.doneMs, ms(done))
				if ev.ack <= ackLimit && done <= doneLimit {
					pr.inLimit++
				}
			default:
				keep = append(keep, ev)
			}
		}
		outstanding = keep
		time.Sleep(200 * time.Microsecond)
	}
}

// report turns the raw outcome into metrics and validity checks. The
// medians are divided by speed, the machine's speed factor across the
// phase (speed.go); tails and lateness stay as measured.
func (pr *pacedResult) report(r *runResult, speed float64) {
	sort.Float64s(pr.ackMs)
	sort.Float64s(pr.doneMs)
	sort.Float64s(pr.statsMs)
	r.m["ack_p50_ms"] = percentile(pr.ackMs, 50) / speed
	r.m["done_p50_ms"] = percentile(pr.doneMs, 50) / speed
	r.m["stats_p50_ms"] = percentile(pr.statsMs, 50) / speed
	r.m["bench.ack_p99_ms"] = percentile(pr.ackMs, 99)
	r.m["bench.done_p99_ms"] = percentile(pr.doneMs, 99)
	r.m["bench.late_max_ms"] = pr.lateMaxMs
	r.m["bench.backlog_max_ms"] = pr.backlogMaxMs
	r.m["bench.paced_offered"] = float64(pr.offered)
	r.m["repl.lag_max"] = float64(pr.lagMax)
	if pr.sampled > 0 {
		r.m["in_limit_share"] = float64(pr.inLimit) / float64(pr.sampled)
	}
	if len(pr.doneMs) == 0 || len(pr.statsMs) == 0 {
		r.failf("paced phase measured nothing: %d events done, %d stats reads", len(pr.doneMs), len(pr.statsMs))
	}
	// A generator that ran late measured its own stalls, not the system.
	if pr.lateOverLimit*100 > pr.requests {
		r.failf("invalid run: the generator itself delayed %d of %d requests by more than %v (max %.1f ms)",
			pr.lateOverLimit, pr.requests, doneLimit, pr.lateMaxMs)
	}
}
