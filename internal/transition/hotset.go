package transition

import "proteus/internal/telemetry"

// Hot-key replication. A key promoted into the hot set resolves at the
// hot depth instead of the Section III-E base depth; because ring k's
// distinct owners are a prefix of ring k+1's, promotion only *adds*
// owners and demotion only removes read probes — no data has to move
// on a demote.
//
// The invariant the conformance oracle checks is:
//
//	hot(k) => no two current distinct owners of k hold different values
//
// (a missing copy is fine — reads fall through; a *divergent* copy is
// not). Four rules maintain it:
//
//  1. Promote synchronizes before it marks: every distinct owner must
//     answer a ping, then the primary's state (value or absence) is
//     installed on (or deleted from) every non-primary owner. Any
//     failure aborts the promotion, leaving the key cold.
//  2. Writes to a hot key fan out to all distinct owners; if any copy
//     cannot be written the key is demoted (Fanout): reads collapse
//     back to the primary, which did get the write first.
//  3. Demote only unmarks. Stale copies linger invisibly — cold reads
//     probe the primary only, and a re-promotion re-syncs.
//  4. An ownership flip re-runs the promote-sync for every hot key
//     (the new owner set may include a node holding a copy from an
//     earlier hot era); keys whose owners are unreachable are demoted.

// Promote moves a key into the hot set and reports whether it is hot
// on return. It pings every distinct owner at full depth first —
// promotion must be atomic, and a half-applied sync (a deleted copy
// that cannot be restored) could not be unwound — then installs the
// primary's state on every non-primary owner, overwriting any stale
// copy from a previous hot era. False means the cluster state (an
// unreachable owner, hot-key replication disabled) vetoed the
// promotion, not that anything broke.
func (m *Machine) Promote(key string) bool {
	e := m.epoch.Load()
	if e.hotRings <= e.baseRings {
		return false
	}
	if e.IsHot(key) {
		return true
	}
	if !m.syncReplicas(key) {
		return false
	}
	m.setHot(key, true, telemetry.EventHotPromote)
	return true
}

// Demote removes a key from the hot set, leaving its replica copies in
// place, and reports whether the key was hot.
func (m *Machine) Demote(key string) bool {
	return m.setHot(key, false, telemetry.EventHotDemote)
}

// setHot publishes an epoch with the key's hot mark changed, copying
// the set (published epochs are immutable), and reports whether the
// mark did change.
func (m *Machine) setHot(key string, hot bool, kind telemetry.EventKind) bool {
	e, changed := m.update(func(e *Epoch) bool {
		if e.IsHot(key) == hot {
			return false
		}
		set := make(map[string]struct{}, len(e.Hot)+1)
		for k := range e.Hot {
			set[k] = struct{}{}
		}
		if hot {
			set[key] = struct{}{}
		} else {
			delete(set, key)
		}
		e.Hot = set
		e.HotEpoch++
		return true
	})
	if changed {
		m.events.Record(telemetry.Event{Kind: kind, Node: e.Owner(key, 0)})
	}
	return changed
}

// Fanout applies write to every distinct owner of key under e and
// enforces rule 2: a replica that missed a multi-owner write may still
// hold the previous value, so the key is demoted (a no-op for cold
// keys); a later promotion re-syncs the copies. write reports whether
// the owner took the write.
func (m *Machine) Fanout(e *Epoch, key string, write func(owner int) bool) {
	owners := e.Owners(key)
	failed := false
	for _, o := range owners {
		if !write(o) {
			failed = true
		}
	}
	if failed && len(owners) > 1 {
		m.Demote(key)
	}
}

// syncReplicas establishes the replica invariant for one key: all
// full-depth owners reachable, then the primary's state copied onto
// every non-primary owner (installed if the primary holds the key,
// deleted if it does not). It reports false if any owner failed; a
// partial sync is safe — each completed step installed the primary's
// state.
func (m *Machine) syncReplicas(key string) bool {
	e := m.epoch.Load()
	owners := e.geo.DistinctOwnersN(nil, key, e.Active, e.hotRings)
	for _, o := range owners {
		if m.fleet.Ping(o) != nil {
			return false
		}
	}
	val, found, err := m.fleet.Get(owners[0], key, nil)
	if err != nil {
		return false
	}
	for _, o := range owners[1:] {
		if found {
			err = m.fleet.Set(o, key, val)
		} else {
			_, err = m.fleet.Delete(o, key)
		}
		if err != nil {
			return false
		}
	}
	return true
}

// hotSyncAfterFlip re-establishes the replica invariant for the whole
// hot set after an ownership flip. A shrink can return a node holding
// a copy from an earlier hot era to a key's owner set; a grow hands
// hot keys brand-new (empty) replicas that should start serving. Keys
// with an unreachable owner are demoted instead of synced. The work is
// bounded by |hot| x (hot depth - 1) operations, on top of the
// |Δn|/max(n,n') Section IV migration bound.
func (m *Machine) hotSyncAfterFlip() {
	synced := false
	for _, key := range m.epoch.Load().HotKeys() {
		if m.syncReplicas(key) {
			synced = true
		} else {
			m.Demote(key)
		}
	}
	if synced {
		m.events.Record(telemetry.Event{Kind: telemetry.EventHotSync, Node: -1})
	}
}
