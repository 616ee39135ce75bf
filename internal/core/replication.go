package core

import (
	"fmt"
	"slices"
)

// Replicated realises Section III-E of the paper: r consistent-hashing
// rings that share a single placement geometry but use r different
// hash functions. A key is stored on the owner of its position on every
// ring, giving up to r copies (fewer when two rings map the key to the
// same server — the paper argues the collision probability is small,
// Eq. 3).
//
// The geometry is any placement Backend (Algorithm 1, power consistent
// hash, or jump); ring i perturbs the backend's key stream with
// seeds[i], so e.g. the PCH backend yields r seeded PCH instances
// mirroring Algorithm 1's seeded-rings construction.
type Replicated struct {
	backend Backend
	seeds   []uint64
}

// replicaSeedBase generates the per-ring hash seeds; any fixed distinct
// constants work as long as every web server uses the same ones.
const replicaSeedBase = 0x9e3779b97f4a7c15

// NewReplicated builds an r-way replicated Algorithm 1 placement over
// n servers. Ring 0 uses the unseeded hash, so Owners(key, active)[0]
// equals the unreplicated Lookup result.
func NewReplicated(n, r int) (*Replicated, error) {
	return NewReplicatedBackend(BackendProteus, n, r)
}

// NewReplicatedBackend builds an r-way replicated placement over n
// servers with the named backend geometry (empty kind selects
// BackendProteus).
func NewReplicatedBackend(kind BackendKind, n, r int) (*Replicated, error) {
	if r < 1 {
		r = 1
	}
	b, err := NewBackend(kind, n)
	if err != nil {
		return nil, err
	}
	seeds := make([]uint64, r)
	for i := 1; i < r; i++ {
		seeds[i] = mix64(replicaSeedBase * uint64(i))
	}
	return &Replicated{backend: b, seeds: seeds}, nil
}

// Backend returns the shared placement geometry.
func (r *Replicated) Backend() Backend { return r.backend }

// Placement returns the shared virtual-node placement when the
// geometry is Algorithm 1, and nil for the O(1) backends (which have
// no explicit virtual nodes to expose).
func (r *Replicated) Placement() *Placement {
	p, _ := r.backend.(*Placement)
	return p
}

// Replicas returns the replication factor r.
func (r *Replicated) Replicas() int { return len(r.seeds) }

// OwnerOnRing returns the server owning the key on one ring at the
// given active-prefix size. Ring 0 is the unseeded (primary) ring.
func (r *Replicated) OwnerOnRing(key string, ring, active int) int {
	if ring < 0 || ring >= len(r.seeds) {
		panic(fmt.Sprintf("core: ring %d out of range 0..%d", ring, len(r.seeds)-1))
	}
	return r.backend.LookupSeeded(key, r.seeds[ring], active)
}

// Owners returns the server owning the key on each of the r rings at
// the given active-prefix size. Entries may repeat when rings collide.
func (r *Replicated) Owners(key string, active int) []int {
	out := make([]int, len(r.seeds))
	for i, seed := range r.seeds {
		out[i] = r.backend.LookupSeeded(key, seed, active)
	}
	return out
}

// DistinctOwners returns Owners with duplicates removed, preserving ring
// order; its length is the number of physical copies actually stored.
func (r *Replicated) DistinctOwners(key string, active int) []int {
	return r.DistinctOwnersN(nil, key, active, len(r.seeds))
}

// DistinctOwnersN is DistinctOwners restricted to the first `rings`
// rings (clamped to 1..Replicas). The hot-key layer uses it to give
// promoted keys a deeper replica set than cold keys over one shared
// geometry: cold keys resolve with rings=1 (the primary ring only),
// promoted keys with rings=R. The first entry is always the primary
// (ring-0) owner. The owners are appended to dst, so a caller with a
// stack array routes without allocating; a nil dst gets a fresh slice.
func (r *Replicated) DistinctOwnersN(dst []int, key string, active, rings int) []int {
	if rings < 1 {
		rings = 1
	}
	if rings > len(r.seeds) {
		rings = len(r.seeds)
	}
	if dst == nil {
		dst = make([]int, 0, rings)
	}
	start := len(dst)
	for ring := 0; ring < rings; ring++ {
		o := r.OwnerOnRing(key, ring, active)
		if !slices.Contains(dst[start:], o) {
			dst = append(dst, o)
		}
	}
	return dst
}

// NoConflictProbability is Eq. 3 of the paper: the probability that r
// independent uniform placements over active servers land on r distinct
// servers, i.e. that a key really gets r copies.
func NoConflictProbability(r, active int) float64 {
	if r < 1 || active < 1 {
		return 0
	}
	p := 1.0
	for i := 0; i < r; i++ {
		p *= float64(active-i) / float64(active)
	}
	if p < 0 {
		return 0
	}
	return p
}
