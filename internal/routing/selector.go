package routing

import (
	"math/rand"

	"netupdate/internal/detrand"
	"netupdate/internal/topology"
)

// Selector picks a concrete path for a demand from a candidate set.
// Implementations must be deterministic given their own state (seeded RNGs
// included) so simulations are reproducible.
type Selector interface {
	// Select returns a path from candidates that can carry demand, and
	// ok=true; or the zero Path and ok=false when no candidate fits.
	Select(g *topology.Graph, candidates PathSet, demand topology.Bandwidth) (path Path, ok bool)
}

// WidestFit selects the feasible candidate with the largest bottleneck
// residual bandwidth, spreading load across the ECMP set. Ties break
// toward the earliest candidate, keeping selection deterministic.
type WidestFit struct{}

var _ Selector = WidestFit{}

// Select implements Selector.
func (WidestFit) Select(g *topology.Graph, candidates PathSet, demand topology.Bandwidth) (Path, bool) {
	best := -1
	var bestResidual topology.Bandwidth
	for i, n := 0, candidates.Len(); i < n; i++ {
		r := candidates.At(i).MinResidual(g)
		if r < demand {
			continue
		}
		if best == -1 || r > bestResidual {
			best, bestResidual = i, r
		}
	}
	if best == -1 {
		return Path{}, false
	}
	return candidates.At(best), true
}

// RandomFit selects uniformly at random among the feasible candidates,
// modeling hash-based ECMP spraying. It is deterministic under its seed,
// and its RNG position is checkpointable via RNGDraws/RestoreRNG.
type RandomFit struct {
	rng *rand.Rand
	src *detrand.CountedSource
}

var _ Selector = (*RandomFit)(nil)

// NewRandomFit returns a RandomFit driven by the given seed.
func NewRandomFit(seed int64) *RandomFit {
	src := detrand.New(seed)
	return &RandomFit{rng: rand.New(src), src: src}
}

// RNGDraws returns the number of RNG draws consumed so far.
func (s *RandomFit) RNGDraws() int64 { return s.src.Draws() }

// RestoreRNG repositions the RNG stream at the given draw count
// (checkpoint recovery).
func (s *RandomFit) RestoreRNG(draws int64) { s.src.Restore(draws) }

// Select implements Selector.
func (s *RandomFit) Select(g *topology.Graph, candidates PathSet, demand topology.Bandwidth) (Path, bool) {
	// Up to 16 candidates, a k = 8 fat-tree's largest set, are filtered
	// without allocating.
	var buf [16]int
	feasible := buf[:0]
	for i, n := 0, candidates.Len(); i < n; i++ {
		if candidates.At(i).Fits(g, demand) {
			feasible = append(feasible, i)
		}
	}
	if len(feasible) == 0 {
		return Path{}, false
	}
	return candidates.At(feasible[s.rng.Intn(len(feasible))]), true
}
