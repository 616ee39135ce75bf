package main

import (
	"math"
	"slices"
	"time"
)

// Latencies are kept as raw nanosecond samples: metrics.Histogram has
// 4.2 % buckets and a 10 µs floor, which would not resolve a 20 µs fetch.

// percentile returns the nearest-rank q-quantile of sorted samples
// (the smallest sample with at least q of the samples at or below it).
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// samplesBeyond is how many of n samples lie above the q-quantile.
func samplesBeyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// highestResolved returns the highest of the usual reporting quantiles
// that still has at least ten samples beyond it; below that a
// percentile is one or two outliers, not a distribution.
func highestResolved(n int) float64 {
	best := 0.5
	for _, q := range []float64{0.9, 0.99, 0.999, 0.9999} {
		if samplesBeyond(n, q) >= 10 {
			best = q
		}
	}
	return best
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }
func msOf(ns int64) float64 { return float64(ns) / 1e6 }

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) — the rule the driver applies.
// It needs at least two values.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	slices.Sort(s)
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((quartile(3) - quartile(1)) / med)
}

// counterDelta is after − before for a monotone counter. A counter that
// reads lower than before was reset in between (a power-cycled cache
// server starts from zero), so everything it shows was counted inside
// the window.
func counterDelta(before, after uint64) uint64 {
	if after < before {
		return after
	}
	return after - before
}

func deltaCounters(before, after map[string]uint64) map[string]uint64 {
	d := make(map[string]uint64, len(after))
	for k, a := range after {
		d[k] = counterDelta(before[k], a)
	}
	return d
}

// timeEach runs fn n times and returns the sorted per-call durations.
func timeEach(n int, fn func(i int)) []int64 {
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		fn(i)
		out[i] = int64(time.Since(t))
	}
	slices.Sort(out)
	return out
}
