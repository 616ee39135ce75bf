// Package helper is an unconstrained utility package: it may touch the
// wall clock and the global rand source freely. The transdeterminism
// fixture's replay-critical package calls into it.
package helper

import (
	"math/rand"
	"time"
)

// Stamp leaks the wall clock to its caller.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Pick leaks the global math/rand source, one call deep.
func Pick(n int) int {
	return pick(n)
}

func pick(n int) int {
	return rand.Intn(n)
}

// started is a package-level wall-clock read outside the contract: no
// finding.
var started = time.Now()

// Clock hands out the wall clock by reference. The reference is no
// call, so calling Clock reaches no nondeterminism.
func Clock() func() time.Time { return time.Now }

// Double is deterministic; calls to it from critical code are fine.
func Double(n int) int {
	return 2 * n
}

// WallFleet implements the replay-critical fixture's Fleet interface
// with the wall clock: a live-plane driver handed in at the boundary.
type WallFleet struct{}

// Boot reads the wall clock.
func (WallFleet) Boot() int64 { return time.Now().UnixNano() }

// Stamper is an interface declared outside the contract.
type Stamper interface{ Stamp() int64 }

// WallStamper implements Stamper with the wall clock.
type WallStamper struct{}

// Stamp reads the wall clock.
func (WallStamper) Stamp() int64 { return time.Now().UnixNano() }
