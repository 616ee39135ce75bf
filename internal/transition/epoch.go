package transition

import (
	"sort"

	"proteus/internal/bloom"
	"proteus/internal/core"
)

// Epoch is one immutable routing state: everything a request needs to
// run Algorithm 2, agreed at a single instant. Fields and the maps and
// slices behind them are never written after publication.
type Epoch struct {
	// Seq increases by one with every published state.
	Seq uint64
	// Active is the active-prefix size requests route to.
	Active int
	// From is the prefix the open window is migrating away from; it
	// equals Active when no window is open.
	From int
	// Digests are the broadcast content digests of the open window,
	// indexed by node, nil where a source was not snapshotted. The
	// slice itself is nil exactly when no window is open.
	Digests []*bloom.Filter
	// Hot is the promoted key set; HotEpoch counts its changes.
	Hot      map[string]struct{}
	HotEpoch uint64

	geo       *core.Replicated
	baseRings int // every key is stored this deep
	hotRings  int // promoted keys are stored this deep (>= baseRings)
}

// Open reports whether a smooth-transition window is open.
func (e *Epoch) Open() bool { return e.Digests != nil }

// Draining reports whether the open window is a scale-down: dying
// servers still serve hot data for on-demand migration and must not be
// powered off early. Provisioning policies gate scale-downs on it.
func (e *Epoch) Draining() bool { return e.Active < e.From }

// IsHot reports whether the key is in the hot set.
func (e *Epoch) IsHot(key string) bool {
	_, ok := e.Hot[key]
	return ok
}

// HotKeys returns the hot set, sorted.
func (e *Epoch) HotKeys() []string {
	keys := make([]string, 0, len(e.Hot))
	for k := range e.Hot {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// RingsFor returns the replica depth a key resolves at: the hot depth
// for promoted keys, the base depth otherwise.
func (e *Epoch) RingsFor(key string) int {
	if e.hotRings > e.baseRings && e.IsHot(key) {
		return e.hotRings
	}
	return e.baseRings
}

// Owners returns the distinct servers that store the key, primary
// first: one per ring at the key's depth, deduplicated (ring
// collisions reduce the copy count, Eq. 3).
func (e *Epoch) Owners(key string) []int { return e.AppendOwners(nil, key) }

// AppendOwners appends Owners(key) to dst and returns the result, so a
// request path can route into a stack array.
func (e *Epoch) AppendOwners(dst []int, key string) []int {
	return e.geo.DistinctOwnersN(dst, key, e.Active, e.RingsFor(key))
}

// Owner returns the key's owner on one replication ring (ring 0 is the
// primary).
func (e *Epoch) Owner(key string, ring int) int {
	return e.geo.OwnerOnRing(key, ring, e.Active)
}

// Route is the per-request routing decision on one ring: the new
// owner, plus — while a window is open, when the ring's old owner
// differs and its digest claims the key — the old owner to try first
// for on-demand migration (Algorithm 2 lines 6-8).
func (e *Epoch) Route(key string, ring int) (newOwner, oldOwner int, tryOld bool) {
	newOwner = e.Owner(key, ring)
	if e.Digests == nil {
		return newOwner, 0, false
	}
	old := e.geo.OwnerOnRing(key, ring, e.From)
	if old == newOwner {
		return newOwner, 0, false
	}
	if d := e.Digests[old]; d == nil || !d.Contains(key) {
		return newOwner, 0, false
	}
	return newOwner, old, true
}
