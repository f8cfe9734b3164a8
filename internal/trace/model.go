// Package trace generates workloads: flow traffic models, update-event
// generators and the background-traffic filler that drives the network to
// a target utilization (Section V-A).
//
// Substitution note: the paper replays a proprietary Yahoo! inter-data-
// center trace [11] and a random trace with the traffic characteristics of
// Benson et al. [12]. Neither dataset is publicly redistributable, so this
// package provides synthetic equivalents: YahooLike reproduces the
// distributional shape that drives the paper's results — a heavy-tailed
// flow-size mix (many mice, few elephants carrying most bytes) — and
// Uniform reproduces the "random trace". The scheduling results depend on
// the shape (heavy tails cause head-of-line blocking), not on trace bytes;
// all parameters are documented and overridable.
package trace

import (
	"fmt"
	"math"
	"math/rand"

	"netupdate/internal/topology"
)

// Model samples the (size, demand) of one flow.
type Model interface {
	// Name identifies the model in reports.
	Name() string
	// Sample draws one flow's payload size in bytes and bandwidth demand.
	Sample(rng *rand.Rand) (size int64, demand topology.Bandwidth)
}

// ParseModel returns the model a command line names: "yahoo"
// (YahooLike) or "random" (Uniform).
func ParseModel(name string) (Model, error) {
	switch name {
	case "yahoo":
		return YahooLike{}, nil
	case "random":
		return Uniform{}, nil
	}
	return nil, fmt.Errorf("unknown trace %q", name)
}

// YahooLike is a synthetic stand-in for the Yahoo! data-center trace:
// an 80/20 mice/elephant mix with log-normal size bodies, matching the
// qualitative statistics reported for data-center traffic (most flows are
// small; a few large flows carry most of the bytes).
type YahooLike struct {
	// MiceFraction is the probability a sampled flow is a mouse
	// (default 0.8).
	MiceFraction float64
	// MiceMedianBytes and ElephantMedianBytes are the medians of the two
	// log-normal size distributions (defaults 20 KB and 10 MB).
	MiceMedianBytes     float64
	ElephantMedianBytes float64
	// Sigma is the log-normal shape parameter (default 1.2).
	Sigma float64
	// MiceDemand / ElephantDemand bound the uniform demand draw in Mbps
	// (defaults 1–10 and 10–100).
	MiceDemandMinMbps     int
	MiceDemandMaxMbps     int
	ElephantDemandMinMbps int
	ElephantDemandMaxMbps int
}

var _ Model = YahooLike{}

// Name implements Model.
func (YahooLike) Name() string { return "yahoo-like" }

// Sample implements Model.
func (m YahooLike) Sample(rng *rand.Rand) (int64, topology.Bandwidth) {
	m = m.withDefaults()
	if rng.Float64() < m.MiceFraction {
		size := logNormal(rng, m.MiceMedianBytes, m.Sigma)
		demand := uniformMbps(rng, m.MiceDemandMinMbps, m.MiceDemandMaxMbps)
		return size, demand
	}
	size := logNormal(rng, m.ElephantMedianBytes, m.Sigma)
	demand := uniformMbps(rng, m.ElephantDemandMinMbps, m.ElephantDemandMaxMbps)
	return size, demand
}

func (m YahooLike) withDefaults() YahooLike {
	if m.MiceFraction == 0 {
		m.MiceFraction = 0.8
	}
	if m.MiceMedianBytes == 0 {
		m.MiceMedianBytes = 20e3
	}
	if m.ElephantMedianBytes == 0 {
		m.ElephantMedianBytes = 10e6
	}
	if m.Sigma == 0 {
		m.Sigma = 1.2
	}
	if m.MiceDemandMinMbps == 0 {
		m.MiceDemandMinMbps = 1
	}
	if m.MiceDemandMaxMbps == 0 {
		m.MiceDemandMaxMbps = 10
	}
	if m.ElephantDemandMinMbps == 0 {
		m.ElephantDemandMinMbps = 10
	}
	if m.ElephantDemandMaxMbps == 0 {
		m.ElephantDemandMaxMbps = 100
	}
	return m
}

// Uniform is the "random trace": sizes and demands drawn uniformly.
type Uniform struct {
	// MinBytes/MaxBytes bound the size draw (defaults 10 KB / 10 MB).
	MinBytes int64
	MaxBytes int64
	// MinDemandMbps/MaxDemandMbps bound the demand draw (defaults 1/100).
	MinDemandMbps int
	MaxDemandMbps int
}

var _ Model = Uniform{}

// Name implements Model.
func (Uniform) Name() string { return "uniform" }

// Sample implements Model.
func (m Uniform) Sample(rng *rand.Rand) (int64, topology.Bandwidth) {
	if m.MinBytes == 0 {
		m.MinBytes = 10e3
	}
	if m.MaxBytes == 0 {
		m.MaxBytes = 10e6
	}
	if m.MinDemandMbps == 0 {
		m.MinDemandMbps = 1
	}
	if m.MaxDemandMbps == 0 {
		m.MaxDemandMbps = 100
	}
	size := m.MinBytes + rng.Int63n(m.MaxBytes-m.MinBytes+1)
	demand := uniformMbps(rng, m.MinDemandMbps, m.MaxDemandMbps)
	return size, demand
}

// logNormal draws a log-normal sample with the given median and shape,
// clamped to at least 1 byte.
func logNormal(rng *rand.Rand, median, sigma float64) int64 {
	v := math.Exp(math.Log(median) + sigma*rng.NormFloat64())
	if v < 1 {
		v = 1
	}
	return int64(v)
}

// uniformMbps draws a uniform integer demand in [min, max] Mbps.
func uniformMbps(rng *rand.Rand, min, max int) topology.Bandwidth {
	if max < min {
		min, max = max, min
	}
	return topology.Bandwidth(min+rng.Intn(max-min+1)) * topology.Mbps
}
