package main

import (
	"runtime"
	"sort"
	"time"
)

// The sandbox this benchmark must be steady on is two hyperthreads of a
// contended core: identical code runs up to 2x slower for seconds to
// tens of minutes at a stretch, with no steal time accounted. Ten runs
// of one seed then spread 15-25 % on every wall-clock metric, and the
// median of one half hour sits 10-20 % from the next (README, "Noise").
//
// So the harness measures the machine alongside the program. At every
// phase boundary, with the deployment idle and after a collection, it
// times a fixed piece of work of its own — pointer chasing, map lookups
// and a sort over 20 MB, the access pattern of the planner's hot paths —
// and each phase's timings are divided by the mean of the two readings
// around it, relative to a reference reading. A compute-only probe does
// not move with the interference, and regressing the metrics on this
// probe gives slopes of 0.5-0.8, so only five eighths of a phase's time
// are taken to follow it (speedFactor). Measured over 2 x 10 seeds x 3
// workloads of identical code, that cut the mean quartile spread from
// 17 % to 10 % and the worst drift between two half hours from 24 % to
// 9 %. The factors are reported as bench.speed_* so a raw time is the
// reported one times its factor.

// probeRefMs is the probe's reading on the undisturbed reference sandbox.
const probeRefMs = 25.0

const probeN = 200_000

type probeNode struct {
	val  int
	next *probeNode
	_    [4]int32
}

// speedProbe owns the probe's data, built once per pass and dropped
// before the heap is measured.
type speedProbe struct {
	reps  int // passes per reading
	nodes []*probeNode
	byKey map[int]*probeNode
	keys  []int
	sink  int
}

func newSpeedProbe(reps int) *speedProbe {
	p := &speedProbe{
		reps:  reps,
		nodes: make([]*probeNode, probeN),
		byKey: make(map[int]*probeNode, probeN),
		keys:  make([]int, probeN),
	}
	for i := range p.nodes {
		p.nodes[i] = &probeNode{val: i}
	}
	for i, nd := range p.nodes {
		nd.next = p.nodes[(i*7919+13)%probeN]
		p.byKey[i*31%probeN] = nd
	}
	return p
}

// work is one allocation-free pass over the probe's data.
func (p *speedProbe) work() time.Duration {
	t0 := time.Now()
	sum := 0
	nd := p.nodes[0]
	for i := 0; i < probeN; i++ {
		nd = nd.next
		sum += nd.val
	}
	for i := 0; i < probeN; i++ {
		if x := p.byKey[(i*17)%probeN]; x != nil {
			sum += x.val
		}
	}
	for i := range p.keys {
		p.keys[i] = (i * 7919) % probeN
	}
	sort.Ints(p.keys)
	p.sink += sum + p.keys[0]
	return time.Since(t0)
}

// read is the median of the probe's passes, in ms, taken after a
// collection so that none of the process's own background GC work runs
// beside it.
func (p *speedProbe) read() float64 {
	runtime.GC()
	reps := make([]float64, p.reps)
	for i := range reps {
		reps[i] = ms(p.work())
	}
	return median(reps)
}

// speedFactor is how much slower than the reference the machine ran
// between two probe readings: 1 at reference speed, 1.625 when the
// probe took twice as long.
func speedFactor(before, after float64) float64 {
	return 0.375 + 0.625*(before+after)/2/probeRefMs
}
