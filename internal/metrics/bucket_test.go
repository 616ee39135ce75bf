package metrics

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// bucketForLog is bucketFor as it was before the octave table: the same
// invariant reached from a logarithm. It stays here as the reference —
// every quantile in every figure depends on the two agreeing.
func bucketForLog(d time.Duration) int {
	if d <= minLatency {
		return 0
	}
	i := int(math.Log(float64(d)/float64(minLatency)) / math.Log(growth))
	if i >= bucketCount {
		return bucketCount - 1
	}
	for i > 0 && bucketBounds[i] > d {
		i--
	}
	for i < bucketCount-1 && bucketBounds[i+1] <= d {
		i++
	}
	return i
}

func TestBucketForMatchesLogReference(t *testing.T) {
	check := func(d time.Duration) {
		t.Helper()
		if got, want := bucketFor(d), bucketForLog(d); got != want {
			t.Fatalf("bucketFor(%d ns) = %d, log reference says %d", d, got, want)
		}
	}
	for _, d := range []time.Duration{-1, 0, 1, minLatency - 1, minLatency, minLatency + 1, math.MaxInt64 - 1, math.MaxInt64} {
		check(d)
	}
	for _, edge := range bucketBounds {
		check(edge - 1)
		check(edge)
		check(edge + 1)
	}
	for n := 0; n < 63; n++ { // the table's own seams
		check(time.Duration(1)<<n - 1)
		check(time.Duration(1) << n)
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 1_000_000; i++ {
		// Log-uniform over every binary length, so no octave goes unvisited.
		check(time.Duration(rng.Int63() >> uint(rng.Intn(63))))
	}
}

// Every simulated request is observed twice (by source and overall);
// Observe must not allocate, in the first bucket or the last.
func TestHistogramObserveAllocs(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{0, time.Millisecond, time.Hour} {
		if allocs := testing.AllocsPerRun(1000, func() { h.Observe(d) }); allocs != 0 {
			t.Errorf("Observe(%v) allocates %.1f times per op, want 0", d, allocs)
		}
	}
}

// BenchmarkHistogramObserve draws from the range the simulator's
// response times fall in (a cache hit is ~1 ms, a queued DB fetch tens
// of ms), spread log-uniformly so the walk length varies.
func BenchmarkHistogramObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]time.Duration, 4096)
	for i := range samples {
		samples[i] = time.Duration(float64(200*time.Microsecond) * math.Pow(500, rng.Float64()))
	}
	var h Histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(samples[i%len(samples)])
	}
}
