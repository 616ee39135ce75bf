// Package loadgen is the determinism fixture for the open-loop load
// generator's contract: arrival schedules are laid down before the run
// as a pure function of (seed, worker), so per-worker seeded
// generators and an injected run clock are the accepted idiom, while
// wall-clock reads or global-rand draws inside schedule construction
// are exactly the bugs that would break byte-identical schedules.
package loadgen

import (
	"math/rand"
	"time"
)

// Clock mirrors the run clock injected at the command boundary.
type Clock interface {
	Now() time.Duration
	WaitUntil(t time.Duration)
}

// schedule mirrors the per-worker Poisson schedule: a seeded generator
// derived from (seed, worker), never the process-wide source.
type schedule struct {
	rng  *rand.Rand
	next time.Duration
	gap  time.Duration
}

// newSchedule is the accepted idiom: the worker's stream is fixed by
// its seed, so two runs with one seed lay down identical timelines.
func newSchedule(seed int64, worker int, gap time.Duration) *schedule {
	return &schedule{
		rng: rand.New(rand.NewSource(seed ^ int64(worker))),
		gap: gap,
	}
}

// draw advances the timeline from the seeded generator — fine.
func (s *schedule) draw() time.Duration {
	s.next += time.Duration(s.rng.ExpFloat64() * float64(s.gap))
	return s.next
}

// wait blocks on the injected clock — fine; the wall clock stays
// behind the Clock implementation at the command boundary.
func wait(c Clock, t time.Duration) {
	c.WaitUntil(t)
}

// badIntended stamps an arrival with the wall clock: the schedule now
// depends on when the run happened to start, so two runs can never be
// byte-identical.
func badIntended() time.Time {
	return time.Now() // want `time\.Now reads the wall clock`
}

// badSelfThrottle re-introduces coordinated omission's cousin: pacing
// with a real sleep instead of the injected clock, unreplayable and
// untestable against a stalled responder.
func badSelfThrottle(gap time.Duration) {
	time.Sleep(gap) // want `time\.Sleep reads the wall clock`
}

// badGap draws inter-arrival gaps from the process-wide source: the
// timeline changes under anything else in the process touching
// math/rand, and seeds stop meaning anything.
func badGap(mean time.Duration) time.Duration {
	return time.Duration(rand.ExpFloat64() * float64(mean)) // want `rand\.ExpFloat64 uses the process-wide source`
}

// badShuffle shuffles a key batch via the global source — same defect
// on the key-choice side.
func badShuffle(keys []string) {
	rand.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] }) // want `rand\.Shuffle uses the process-wide source`
}

// allowedBoundary shows the documented escape hatch for the one place
// a live-plane default is legitimate.
func allowedBoundary() time.Time {
	//lint:allow transdeterminism live-plane boundary: run start stamp for operator logs, never replayed
	return time.Now()
}
