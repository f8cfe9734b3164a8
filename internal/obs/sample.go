package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Sample is one reading of every metric of a registry (Registry.Sample),
// or of several registries combined (Merge), sorted by metric name. It
// is the one typed telemetry value: ctl decodes Stats from it, a gateway
// merges its shards' samples, and Snapshot projects it for expvar.
type Sample []Metric

// Metric is one named reading.
type Metric struct {
	Name string `json:"n"`
	Value
}

// Get returns the named metric's reading.
func (s Sample) Get(name string) (Value, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Name >= name })
	if i < len(s) && s[i].Name == name {
		return s[i].Value, true
	}
	return Value{}, false
}

// Type is a sampled metric's kind.
type Type uint8

// Metric kinds.
const (
	TypeCounter Type = iota + 1
	TypeGauge
	TypeFloat
	TypeHistogram
	TypeDistribution
	TypeQuantiles
	TypeInfo
)

// Value is one metric's reading. Which fields are set follows Type:
// Int for counters and gauges, Float for float gauges, Hist for
// histograms, distributions and quantile views, Labels for an info
// metric.
type Value struct {
	Type   Type              `json:"t"`
	Rule   Rule              `json:"r,omitempty"`
	Int    int64             `json:"i,omitempty"`
	Float  float64           `json:"f,omitempty"`
	Hist   *HistogramValue   `json:"h,omitempty"`
	Labels map[string]string `json:"l,omitempty"`
}

// HistogramValue is a histogram's reading: its non-empty buckets plus
// the sum, count and largest observation. A distribution's reading has
// float bounds and buckets only; a quantile view's also lists the
// percentiles it reports.
type HistogramValue struct {
	Bounds  []int64   `json:"b,omitempty"`
	FBounds []float64 `json:"fb,omitempty"`
	Buckets []Bucket  `json:"n,omitempty"`
	Sum     int64     `json:"s,omitempty"`
	Count   int64     `json:"c,omitempty"`
	Max     int64     `json:"m,omitempty"`
	Qs      []float64 `json:"q,omitempty"`
}

// Bucket is one non-empty bucket: its index into the bounds (one past
// the last bound is the +Inf bucket) and how many observations it holds.
type Bucket struct {
	Index int   `json:"i"`
	Count int64 `json:"n"`
}

// Percentile estimates the p-th percentile (0 < p <= 100) by
// nearest-rank over the cumulative bucket counts, reporting the upper
// bound of the bucket the rank falls in. Because log buckets double,
// that upper bound can sit far past the largest sample actually
// observed — so any estimate above the tracked maximum snaps to the
// maximum, which also gives the +Inf bucket a finite answer. Returns 0
// when the histogram is empty or p <= 0 (matching the repo-wide
// percentile contract). On a merged value it is the percentile of every
// merged observation, exactly as one histogram fed all of them reports.
func (v *HistogramValue) Percentile(p float64) int64 {
	if v == nil || v.Count == 0 || p <= 0 {
		return 0
	}
	rank := int64(math.Ceil(min(p, 100) / 100 * float64(v.Count)))
	var cum, x int64
	for _, b := range v.Buckets {
		if cum += b.Count; cum >= rank {
			x = v.Max
			if b.Index < len(v.Bounds) {
				x = v.Bounds[b.Index]
			}
			break
		}
	}
	// Snap to the observed max (when known: histograms restored from
	// pre-max checkpoints carry max == 0 and keep the bucket bound).
	if v.Max > 0 && x > v.Max {
		x = v.Max
	}
	return x
}

// Mean is Sum / Count truncated toward zero, 0 when empty.
func (v *HistogramValue) Mean() int64 {
	if v == nil || v.Count == 0 {
		return 0
	}
	return v.Sum / v.Count
}

// cumulative calls fn for every bucket, empty ones included, with its
// upper bound as Prometheus spells it and the cumulative count.
func (v *HistogramValue) cumulative(fn func(le string, cum int64)) {
	var cum int64
	next := v.Buckets
	for i := 0; i <= len(v.Bounds)+len(v.FBounds); i++ {
		if len(next) > 0 && next[0].Index == i {
			cum += next[0].Count
			next = next[1:]
		}
		le := "+Inf"
		switch {
		case i < len(v.Bounds):
			le = strconv.FormatInt(v.Bounds[i], 10)
		case i < len(v.FBounds):
			le = formatFloat(v.FBounds[i])
		}
		fn(le, cum)
	}
}

// Merge combines samples metric by metric, each by the rule it was
// registered with, in argument order (MergeFirst keeps the earliest
// sample's reading; a metric only some samples hold merges over those).
// Histograms add bucket by bucket, so a merged Percentile is the
// percentile of the union of the observations, not a bound. Samples
// must come from registries with one bucket layout per metric name.
func Merge(samples ...Sample) Sample {
	at := make([]int, len(samples)) // each sample's next unmerged reading
	// Sized for the usual union: the largest layout plus another's extras.
	longest, shortest := 0, 0
	for i, s := range samples {
		longest = max(longest, len(s))
		if i == 0 || len(s) < shortest {
			shortest = len(s)
		}
	}
	out := make(Sample, 0, longest+shortest)
	var ibuf [8]int
	var hbuf [8]*HistogramValue
	for {
		// The samples holding the smallest name left, in argument order.
		var name string
		holders := ibuf[:0]
		for i, s := range samples {
			switch {
			case at[i] == len(s):
			case len(holders) > 0 && s[at[i]].Name == name:
				holders = append(holders, i)
			case len(holders) == 0 || s[at[i]].Name < name:
				name, holders = s[at[i]].Name, append(holders[:0], i)
			}
		}
		if len(holders) == 0 {
			return out
		}
		out = append(out, Metric{Name: name})
		acc := &out[len(out)-1].Value
		filled := hbuf[:0] // the readings that hold observations
		for n, i := range holders {
			v := &samples[i][at[i]].Value
			at[i]++
			if n == 0 {
				*acc = *v
			} else {
				fold(acc, v)
			}
			if v.Hist != nil && len(v.Hist.Buckets) > 0 {
				filled = append(filled, v.Hist)
			}
		}
		switch {
		case acc.Rule == MergeMean:
			acc.Int /= int64(len(holders))
			acc.Float /= float64(len(holders))
		case acc.Rule == MergeBuckets && len(filled) > 0:
			acc.Hist = addBuckets(filled)
		}
	}
}

// fold combines one more reading into acc by acc's rule (bucket-add and
// the mean's division happen once the metric's readings are all in).
func fold(acc, v *Value) {
	switch acc.Rule {
	case MergeSum, MergeMean:
		acc.Int += v.Int
		acc.Float += v.Float
	case MergeMax:
		acc.Int, acc.Float = max(acc.Int, v.Int), max(acc.Float, v.Float)
	}
}

// addBuckets adds histogram readings of one layout, each holding
// observations, bucket by bucket: sum and count add, the maximum is the
// largest.
func addBuckets(hs []*HistogramValue) *HistogramValue {
	if len(hs) == 1 {
		return hs[0]
	}
	sum := *hs[0]
	var buf [64]int64 // the bucket sums, for every layout in use here
	dense := append(buf[:0], make([]int64, len(sum.Bounds)+len(sum.FBounds)+1)...)
	for i, h := range hs {
		if i > 0 {
			sum.Sum, sum.Count, sum.Max = sum.Sum+h.Sum, sum.Count+h.Count, max(sum.Max, h.Max)
		}
		for _, b := range h.Buckets {
			if b.Index >= 0 && b.Index < len(dense) {
				dense[b.Index] += b.Count
			}
		}
	}
	sum.Buckets = buckets(len(dense), func(i int) int64 { return dense[i] })
	return &sum
}

// nonEmpty lists a live histogram's non-empty buckets.
func nonEmpty(counts []atomic.Int64) []Bucket {
	return buckets(len(counts), func(i int) int64 { return counts[i].Load() })
}

// buckets lists the non-empty ones of n bucket counts, allocating once
// (not at all when every count is zero).
func buckets(n int, count func(i int) int64) []Bucket {
	var buf [64]Bucket
	filled := buf[:0]
	for i := 0; i < n; i++ {
		if c := count(i); c != 0 {
			filled = append(filled, Bucket{Index: i, Count: c})
		}
	}
	if len(filled) == 0 {
		return nil
	}
	return append([]Bucket(nil), filled...)
}

// render writes one reading in Prometheus text exposition format.
func (d *desc) render(w io.Writer, v Value) {
	typ := "gauge"
	switch v.Type {
	case TypeCounter:
		typ = "counter"
	case TypeHistogram:
		typ = "histogram"
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", d.name, d.help, d.name, typ)
	switch v.Type {
	case TypeCounter, TypeGauge:
		fmt.Fprintf(w, "%s %d\n", d.name, v.Int)
	case TypeFloat:
		fmt.Fprintf(w, "%s %s\n", d.name, formatFloat(v.Float))
	case TypeHistogram, TypeDistribution:
		v.Hist.cumulative(func(le string, cum int64) { fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", d.name, le, cum) })
		if v.Type == TypeHistogram {
			fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", d.name, v.Hist.Sum, d.name, v.Hist.Count)
		}
	case TypeQuantiles:
		for _, p := range v.Hist.Qs {
			fmt.Fprintf(w, "%s{q=\"%s\"} %d\n", d.name, formatFloat(p/100), v.Hist.Percentile(p))
		}
	case TypeInfo:
		pairs := make([]string, 0, len(v.Labels))
		for k, l := range v.Labels {
			pairs = append(pairs, fmt.Sprintf("%s=%q", k, l))
		}
		sort.Strings(pairs)
		if len(pairs) > 0 {
			fmt.Fprintf(w, "%s{%s} 1\n", d.name, strings.Join(pairs, ","))
		} else {
			fmt.Fprintf(w, "%s 1\n", d.name)
		}
	}
}

// plain projects a reading to the value Snapshot publishes.
func (v Value) plain() any {
	switch v.Type {
	case TypeCounter, TypeGauge:
		return v.Int
	case TypeFloat:
		return v.Float
	case TypeInfo:
		return v.Labels
	case TypeQuantiles:
		out := make(map[string]int64, len(v.Hist.Qs))
		for _, p := range v.Hist.Qs {
			out["p"+formatFloat(p)] = v.Hist.Percentile(p)
		}
		return out
	}
	buckets := make(map[string]int64, len(v.Hist.Bounds)+len(v.Hist.FBounds)+1)
	v.Hist.cumulative(func(le string, cum int64) {
		if le == "+Inf" {
			le = "inf"
		}
		buckets["le_"+le] = cum
	})
	if v.Type == TypeDistribution {
		return buckets
	}
	return map[string]any{"count": v.Hist.Count, "sum": v.Hist.Sum, "buckets": buckets}
}

// formatFloat renders floats compactly ("0.6", not "0.600000").
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
