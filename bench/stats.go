package main

import (
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank p-th percentile of an ascending slice
// (0 when empty).
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(float64(len(asc))*p/100+0.5) - 1
	return asc[min(max(i, 0), len(asc)-1)]
}

// quantile is the q-quantile of xs by the "exclusive" rule: position
// q·(n+1), linear interpolation, clamped to the sample. For four or
// more values its quartiles are those of Python's
// statistics.quantiles(xs, n=4), which the acceptance rule is stated
// in. One value is its own quantile.
func quantile(xs []float64, q float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 1 {
		return s[0]
	}
	pos := q * float64(n+1)
	j := min(max(int(pos), 1), n-1)
	delta := min(max(pos-float64(j), 0), 1)
	return s[j-1]*(1-delta) + s[j]*delta
}
