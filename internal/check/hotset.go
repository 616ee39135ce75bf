package check

import "sort"

// Hot-key replication, model side: the oracle's independent model of
// the hot set both planes run (internal/transition/hotset.go). The
// invariant the machine maintains, and the replica-consistency probe
// checks on the plane:
//
//	hot(k) => no two reachable current owners of k hold different values
//
// A missing copy is not divergence (reads fall through); a stale copy
// is, and every path that could create one either synchronizes first
// (promote, post-flip hot sync) or demotes (failed write fan-out,
// unreachable owner at sync time).

// ringsFor returns the replica depth key resolves at, modelling
// Epoch.RingsFor (the conformance base depth is always 1).
func (o *Oracle) ringsFor(key string) int {
	if o.hotRings <= 1 {
		return 1
	}
	if _, ok := o.hot[key]; ok {
		return o.hotRings
	}
	return 1
}

// owners returns the key's distinct current owners at its replica
// depth, primary first.
func (o *Oracle) owners(key string) []int {
	return o.replicated.DistinctOwnersN(nil, key, o.active, o.ringsFor(key))
}

// HotReplicas returns the promoted-key replica depth (1 when hot-key
// replication is disabled).
func (o *Oracle) HotReplicas() int { return o.hotRings }

// IsHot reports whether the model considers the key hot.
func (o *Oracle) IsHot(key string) bool {
	_, ok := o.hot[key]
	return ok
}

// HotKeys returns the model's hot set, sorted.
func (o *Oracle) HotKeys() []string {
	keys := make([]string, 0, len(o.hot))
	for k := range o.hot {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Owners returns the key's distinct current owners at the key's
// replica depth, primary first (probe support).
func (o *Oracle) Owners(key string) []int { return o.owners(key) }

// NodeValue returns the value the model says server i holds for key.
func (o *Oracle) NodeValue(i int, key string) (string, bool) {
	v, ok := o.nodes[i].store[key]
	return v, ok
}

// LastHotSync reports the most recent ApplyScale's hot-sync work: how
// many replica copies it installed or deleted, and how many keys were
// hot when the flip happened. The extended migration-bound probe
// checks installs <= hotBefore x (HotReplicas - 1).
func (o *Oracle) LastHotSync() (installs, hotBefore int) {
	return o.lastSyncInstalls, o.lastSyncHot
}

// ApplyPromote models Machine.Promote: if every full-depth owner is
// reachable, the primary's state is copied onto every non-primary
// owner and the key is marked hot. Reports whether the key is hot on
// return.
func (o *Oracle) ApplyPromote(key string) bool {
	if o.hotRings <= 1 {
		return false
	}
	if _, ok := o.hot[key]; ok {
		return true
	}
	if _, ok := o.syncHot(key); !ok {
		return false
	}
	o.hot[key] = struct{}{}
	return true
}

// ApplyDemote models Machine.Demote: unmark only; copies linger
// invisibly. Reports whether the key was hot.
func (o *Oracle) ApplyDemote(key string) bool {
	if _, ok := o.hot[key]; !ok {
		return false
	}
	delete(o.hot, key)
	return true
}

// syncHot establishes the replica invariant for one key: all
// full-depth owners reachable, then the primary's state (value or
// absence) copied onto every non-primary owner. Returns the number of
// copies touched and whether the sync ran.
func (o *Oracle) syncHot(key string) (installs int, ok bool) {
	owners := o.replicated.DistinctOwnersN(nil, key, o.active, o.hotRings)
	for _, s := range owners {
		if !o.Reachable(s) {
			return 0, false
		}
	}
	v, hit := o.nodes[owners[0]].store[key]
	for _, s := range owners[1:] {
		if hit {
			o.nodes[s].store[key] = v
		} else {
			delete(o.nodes[s].store, key)
		}
		installs++
	}
	return installs, true
}

// hotSyncAfterFlip mirrors the plane-side post-flip sweep: every hot
// key re-synced onto its new owner set, keys with an unreachable owner
// demoted, and the work recorded for the migration-bound probe.
func (o *Oracle) hotSyncAfterFlip() {
	o.lastSyncInstalls, o.lastSyncHot = 0, len(o.hot)
	if o.hotRings <= 1 || len(o.hot) == 0 {
		return
	}
	for _, key := range o.HotKeys() {
		if n, ok := o.syncHot(key); ok {
			o.lastSyncInstalls += n
		} else {
			delete(o.hot, key)
		}
	}
}
