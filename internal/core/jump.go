package core

import "fmt"

// Jump is Lamping & Veach's jump consistent hash (2014) as a placement
// backend: O(1) memory, O(log n) expected routing, exact 1/(n+1)
// expected movement on n→n+1. It replays the same monotone growth
// process PCH replays (see pch.go), but from j=1 every time — the
// log-factor PCH's windowing removes. Kept as the classic baseline so
// sweeps and benches compare three backends, not two.
//
// The hash stream is PointSeeded with jumpSeed, then the published
// jump walk.
type Jump struct {
	n int
}

// jumpSeed decorrelates Jump's key stream from the ring position
// hash. It must not change: routing is a pure function of it.
const jumpSeed = 0x6a756d7068617368 // "jumphash"

// NewJump builds the jump backend for a fleet of n servers.
func NewJump(n int) (*Jump, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: placement needs at least 1 server, got %d", n)
	}
	return &Jump{n: n}, nil
}

// Kind identifies the backend.
func (j *Jump) Kind() BackendKind { return BackendJump }

// Servers returns the fleet size.
func (j *Jump) Servers() int { return j.n }

// Lookup routes key to its owner among the first active servers.
// Panics when active < 1; clamps active to the fleet size.
//
//lint:hotpath jump primary routing decision
func (j *Jump) Lookup(key string, active int) int {
	return j.LookupSeeded(key, 0, active)
}

// LookupSeeded routes key on the ring perturbed by seed; seed 0 is
// the primary ring and agrees with Lookup.
//
//lint:hotpath jump replica-ring routing decision
func (j *Jump) LookupSeeded(key string, seed uint64, active int) int {
	if active < 1 {
		panic("core: active server count must be >= 1")
	}
	if active > j.n {
		active = j.n
	}
	return jumpHash(PointSeeded(key, jumpSeed^seed), active)
}

// jumpHash is the published algorithm: a sequence of deterministic
// "jumps" whose last landing below n is the bucket.
//
//lint:hotpath jump walk
func jumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}
