// Package metrics provides the measurement plumbing for the evaluation:
// log-bucketed latency histograms with high-quantile queries (the
// paper's 99.9th-percentile response times, Fig. 9), per-slot time
// series, and per-server load counters for the min/max load-balance
// ratio (Fig. 5).
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Histogram is a log-bucketed latency histogram. Buckets grow
// geometrically from 10µs to ~100s with ~4% relative width, so
// quantile error is bounded by the bucket ratio. The zero value is
// ready to use.
type Histogram struct {
	counts [bucketCount]uint64
	total  uint64
	sum    time.Duration
	max    time.Duration
}

const (
	bucketCount = 400
	minLatency  = 10 * time.Microsecond
	// growth is chosen so bucketCount buckets span minLatency..~160s.
	growth = 1.042
)

var bucketBounds = func() [bucketCount]time.Duration {
	var bounds [bucketCount]time.Duration
	edge := float64(minLatency)
	for i := range bounds {
		bounds[i] = time.Duration(edge)
		edge *= growth
	}
	return bounds
}()

// octaveStart[n] is the bucket holding the smallest duration whose
// binary length is n, which is where bucketFor starts its walk: a
// bucket is ~4% wide, so the rest of the octave is at most 17 further on.
var octaveStart = func() [65]uint16 {
	var start [65]uint16
	i := 0
	for n := 1; n < len(start); n++ {
		lowest := time.Duration(1) << (n - 1)
		for i < bucketCount-1 && bucketBounds[i+1] <= lowest {
			i++
		}
		start[n] = uint16(i)
	}
	return start
}()

// bucketFor returns the bucket i with bucketBounds[i] <= d <
// bucketBounds[i+1], clamped to the first and last bucket.
func bucketFor(d time.Duration) int {
	if d <= minLatency {
		return 0
	}
	// The start is the bucket of a duration no larger than d, so the
	// invariant is only ever reached from below.
	i := int(octaveStart[bits.Len64(uint64(d))])
	for i < bucketCount-1 && bucketBounds[i+1] <= d {
		i++
	}
	return i
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketFor(d)]++
	h.total++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Mean returns the average sample, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Max returns the largest sample observed.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns an upper estimate of the q-quantile (0 < q <= 1),
// or 0 when empty. The estimate is the upper edge of the bucket that
// contains the quantile, so it never understates tail latency.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		q = math.SmallestNonzeroFloat64
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if i == bucketCount-1 {
				return h.max
			}
			upper := bucketBounds[i+1]
			if upper > h.max {
				return h.max
			}
			return upper
		}
	}
	return h.max
}

// Merge adds all of other's samples into h (max is preserved; the
// merged mean is sample-weighted).
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset clears the histogram.
func (h *Histogram) Reset() {
	*h = Histogram{}
}

func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v p99.9=%v max=%v",
		h.total, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Quantile(0.999), h.max)
}
