package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestDistributionBucketMatchesSearch holds the arithmetic bucket of
// evenly spaced bounds to sort.SearchFloat64s: at every bound and its
// float64 neighbours on both sides, at 0, above the last bound, at the
// infinities and NaN, and over a random sweep. Unevenly spaced bounds are
// left to the search itself.
func TestDistributionBucketMatchesSearch(t *testing.T) {
	link := NewSimMetrics(NewRegistry()).LinkUtil
	if link.inv == 0 {
		t.Fatalf("link-utilization bounds %v not recognised as evenly spaced", link.bounds)
	}
	for _, bounds := range [][]float64{{1, 2, 5, 10}, {0.5}, {1, 1, 1}, {}} {
		if d := NewRegistry().NewDistribution("uneven", "test", bounds); d.inv != 0 {
			t.Errorf("bounds %v taken as evenly spaced (inverse step %v)", bounds, d.inv)
		}
	}
	for _, d := range []*Distribution{
		link,
		NewRegistry().NewDistribution("thirds", "test", []float64{1.0 / 3, 2.0 / 3, 1}),
		NewRegistry().NewDistribution("shifted", "test", []float64{-2.5, -1.5, -0.5, 0.5, 1.5}),
		NewRegistry().NewDistribution("pair", "test", []float64{0.5, 1}),
	} {
		values := []float64{0, math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e300}
		for _, b := range d.bounds {
			values = append(values, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)), b+1, 2*b)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 10000; i++ {
			values = append(values, rng.Float64()*1.4-0.2)
		}
		for _, v := range values {
			if got, want := d.evenBucket(v), sort.SearchFloat64s(d.bounds, v); got != want {
				t.Errorf("%s: evenBucket(%v) = %d, SearchFloat64s %d", d.name, v, got, want)
			}
		}
	}
}

// BenchmarkDistributionUpdate times one link-utilization refresh of a
// k = 8 fat-tree's 768 links.
func BenchmarkDistributionUpdate(b *testing.B) {
	d := NewSimMetrics(NewRegistry()).LinkUtil
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 768)
	for i := range samples {
		samples[i] = rng.Float64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Update(samples)
	}
}
