// Package detrand provides a seeded math/rand source that counts the
// values drawn from it. Randomized components (the LMTF sampler, the
// RandomFit path selector) draw through a CountedSource so checkpoint/
// recovery can capture an RNG's exact position as a draw count and
// restore it by reseeding and replaying that many draws — the stream a
// recovered process sees continues precisely where the crashed one
// stopped, which the deterministic replay fold depends on.
package detrand

import "math/rand"

// CountedSource is a rand.Source whose draws are counted. It
// deliberately implements only Source (not Source64): rand.Rand then
// funnels every consuming method through Int63, so one count always
// equals one state step and Restore replays exactly.
type CountedSource struct {
	seed int64
	src  rand.Source
	n    int64
}

var _ rand.Source = (*CountedSource)(nil)

// New returns a counted source seeded with seed.
func New(seed int64) *CountedSource {
	return &CountedSource{seed: seed, src: rand.NewSource(seed)}
}

// Int63 implements rand.Source.
func (s *CountedSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

// Seed implements rand.Source, resetting the draw count.
func (s *CountedSource) Seed(seed int64) {
	s.seed = seed
	s.src.Seed(seed)
	s.n = 0
}

// Draws returns the number of values drawn since the last (re)seed.
func (s *CountedSource) Draws() int64 { return s.n }

// Restore positions the stream exactly where a source that made draws
// live draws would be: it burns the draws between its own position and
// draws, reseeding with its original seed first only when draws lies
// behind it. Restoring once per logged round thus costs the draws that
// round made, not the run's.
func (s *CountedSource) Restore(draws int64) {
	if draws < s.n {
		s.src.Seed(s.seed)
		s.n = 0
	}
	for s.n < draws {
		s.Int63()
	}
}
