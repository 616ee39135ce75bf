// Package database impersonates a replay-critical package to test
// direct uses: wall-clock and global-rand uses are flagged; the
// injected-clock / seeded-generator idiom used by internal/sim (cf.
// sim/cluster.go newDBModel) is accepted.
package database

import (
	"math/rand"
	"time"
)

// Clock mirrors the injected time source used across the repository.
type Clock func() time.Time

// model mirrors internal/sim/cluster.go's dbModel: a seeded generator
// owned by the component, never the global source.
type model struct {
	clock Clock
	rng   *rand.Rand
}

// newModel is the accepted idiom: rand.New(rand.NewSource(seed)).
func newModel(clock Clock, seed int64) *model {
	return &model{clock: clock, rng: rand.New(rand.NewSource(seed))}
}

// jitter draws from the seeded generator — method calls on *rand.Rand
// are fine.
func (m *model) jitter() time.Duration {
	return time.Duration(m.rng.Int63n(1000)) * time.Millisecond
}

// at reads the injected clock — fine.
func (m *model) at() time.Time { return m.clock() }

// now defaults a package-level clock to the wall clock: an initializer
// runs outside every function body and is flagged all the same.
var now Clock = time.Now // want `time\.Now reads the wall clock`

// stamp is a package-level function literal: its body is flagged once.
var stamp = func() time.Time {
	return time.Now() // want `time\.Now reads the wall clock`
}

func badNow() time.Time {
	return time.Now() // want `time\.Now reads the wall clock`
}

// badFallback is the pattern that motivated this analyzer: silently
// defaulting to the wall clock when no Clock is injected. A bare
// reference (no call) must be flagged too.
func badFallback(c Clock) Clock {
	if c == nil {
		c = time.Now // want `time\.Now reads the wall clock`
	}
	return c
}

func badSleep() {
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the wall clock`
}

func badSince(t time.Time) time.Duration {
	return time.Since(t) // want `time\.Since reads the wall clock`
}

func badTimer() *time.Timer {
	return time.NewTimer(time.Second) // want `time\.NewTimer reads the wall clock`
}

func badGlobalInt() int {
	return rand.Intn(10) // want `rand\.Intn uses the process-wide source`
}

func badGlobalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `rand\.Shuffle uses the process-wide source`
}

func badGlobalFloat() float64 {
	return rand.Float64() // want `rand\.Float64 uses the process-wide source`
}

// allowedStartTime shows the directive escape hatch: same-line or
// line-above placement both suppress, and the reason is mandatory.
func allowedStartTime() time.Time {
	//lint:allow transdeterminism boot timestamp is operator-facing reporting, never replayed
	return time.Now()
}

func allowedSameLine() time.Time {
	return time.Now() //lint:allow transdeterminism operator-facing uptime stamp
}

// notSuppressed shows that a directive without a reason suppresses
// nothing: the finding still surfaces.
func notSuppressed() time.Time {
	//lint:allow transdeterminism
	return time.Now() // want `time\.Now reads the wall clock`
}
