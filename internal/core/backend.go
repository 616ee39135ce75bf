package core

import "fmt"

// Placement backends. Algorithm 1 (Placement) is the paper's exact
// construction: every prefix owns exactly 1/n of the ring and resizes
// move the rational minimum. Its price is N(N-1)/2+1 virtual nodes —
// quadratic memory and an O(N³) exact-rational build that takes
// seconds past N≈256. The alternative backends trade the *exact*
// Balance Condition for O(1) construction and O(1) expected routing
// while keeping the two properties the Section IV transition machine
// actually depends on:
//
//   - prefix-active-set semantics: Route(key, n) ∈ [0, n) for the
//     powered prefix n, so digests, drains and power flips address the
//     same server set under every backend;
//   - monotone minimal remapping: growing n→n+1 moves keys only into
//     bucket n (a 1/(n+1) expected fraction), shrinking is the exact
//     reverse — so the |Δn|/max(n,n') migration bound still holds in
//     expectation and relocation digests still cover every mover.
//
// Balance becomes statistical instead of exact: each server owns 1/n
// of the key space in expectation, with per-sample deviation measured
// by the conformance harness's sampled balance probe (numbers in
// EXPERIMENTS.md).

// BackendKind names a placement backend. The zero value selects
// BackendProteus so existing configs are unchanged.
type BackendKind string

const (
	// BackendProteus is Algorithm 1: exact rational balance, minimal
	// migration, O(N²) virtual nodes.
	BackendProteus BackendKind = "proteus"
	// BackendPCH is power consistent hash: O(1) expected routing and
	// O(1) memory via a power-of-two window walk (pch.go).
	BackendPCH BackendKind = "pch"
	// BackendJump is Lamping-Veach jump consistent hash: O(1) memory,
	// O(log n) expected routing; the classic baseline.
	BackendJump BackendKind = "jump"
	// BackendModulo is hash-modulo routing, the paper's Naive baseline
	// (baseline.go). Not monotone; ParseBackend rejects it.
	BackendModulo BackendKind = "modulo"
	// BackendConsistent is random-virtual-node consistent hashing with
	// n²/2 nodes, the paper's Consistent baseline (baseline.go).
	// Monotone but not balanced; ParseBackend rejects it.
	BackendConsistent BackendKind = "consistent"
)

// ParseBackend maps a flag value to a BackendKind. The empty string
// selects BackendProteus. The Table II baselines are not selectable:
// they exist for the simulator's comparison scenarios.
func ParseBackend(s string) (BackendKind, error) {
	switch s {
	case "", string(BackendProteus):
		return BackendProteus, nil
	case string(BackendPCH):
		return BackendPCH, nil
	case string(BackendJump):
		return BackendJump, nil
	default:
		return "", fmt.Errorf("core: unknown placement backend %q (want proteus, pch or jump)", s)
	}
}

func (k BackendKind) String() string {
	if k == "" {
		return string(BackendProteus)
	}
	return string(k)
}

// Backend is the routing contract every placement implementation
// satisfies. Lookup and LookupSeeded panic when active < 1 and clamp
// active to Servers(), mirroring Placement.Owner.
type Backend interface {
	// Kind identifies the implementation.
	Kind() BackendKind
	// Servers returns the fleet size the backend was built for.
	Servers() int
	// Lookup routes key to its owner among the first active servers.
	Lookup(key string, active int) int
	// LookupSeeded routes key on the ring perturbed by seed; seed 0 is
	// the primary ring and agrees with Lookup. Replica rings
	// (core.Replicated) pass their per-ring seeds here.
	LookupSeeded(key string, seed uint64, active int) int
}

// NewBackend constructs the named backend for a fleet of n servers,
// the Table II baselines included. An empty kind selects
// BackendProteus.
func NewBackend(kind BackendKind, n int) (Backend, error) {
	switch kind {
	case "", BackendProteus:
		return New(n)
	case BackendPCH:
		return NewPCH(n)
	case BackendJump:
		return NewJump(n)
	case BackendModulo:
		return NewModulo(n)
	case BackendConsistent:
		return NewConsistentHalfSquare(n)
	default:
		return nil, fmt.Errorf("core: unknown placement backend %q (want proteus, pch, jump, modulo or consistent)", kind)
	}
}

// Kind identifies Placement as the Algorithm 1 backend.
func (p *Placement) Kind() BackendKind { return BackendProteus }

// LookupSeeded routes key on the ring perturbed by seed. Seed 0
// agrees with Lookup exactly (PointSeeded(key, 0) == Point(key)).
// Unlike the O(1) backends this path is not //lint:hotpath: Owner's
// range binary search allocates its sort.Search closure, which is the
// cost the pch backend exists to avoid.
func (p *Placement) LookupSeeded(key string, seed uint64, active int) int {
	return p.Owner(PointSeeded(key, seed), active)
}

var _ Backend = (*Placement)(nil)
var _ Backend = (*PCH)(nil)
var _ Backend = (*Jump)(nil)
var _ Backend = (*Modulo)(nil)
var _ Backend = (*Consistent)(nil)
