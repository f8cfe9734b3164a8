package sim

import (
	"time"

	"netupdate/internal/flow"
)

// release is a scheduled removal of a finished event flow.
type release struct {
	at time.Duration
	f  *flow.Flow
}

// releaseHeap is a min-heap of pending flow releases ordered by time,
// with flow ID as a deterministic tie-break. It sifts values in place
// rather than going through container/heap, whose Push and Pop box every
// release into an interface.
type releaseHeap []release

// less orders the heap by (at, flow ID), a total order: the pop
// sequence does not depend on the heap's storage layout.
func (h releaseHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].f.ID < h[j].f.ID
}

// push adds a release.
func (h *releaseHeap) push(rel release) {
	*h = append(*h, rel)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// pop removes and returns the earliest release; the heap must not be
// empty.
func (h *releaseHeap) pop() release {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = release{}
	s = s[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && s.less(r, j) {
			j = r
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s
	return top
}
