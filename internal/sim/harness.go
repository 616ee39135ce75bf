package sim

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"proteus/internal/bloom"
	"proteus/internal/core"
	"proteus/internal/faultinject"
	"proteus/internal/telemetry"
	"proteus/internal/transition"
)

// Harness is the DES execution plane of the conformance checker
// (internal/check): the same substrate the figure-replay runner uses —
// Engine virtual clock, cache.Cache stores with counting-filter
// digests, the shared Section IV machine (internal/transition) — but
// driven one operation at a time by an external schedule instead of a
// closed workload loop. Every method is synchronous in virtual time and
// the whole state is a pure function of the operation sequence, so the
// explorer can interleave client ops, transitions, faults, and clock
// skips arbitrarily and replay them byte-for-byte.
//
// Transitions and the hot set run the code the live coordinator runs.
// What is the harness's own is the request path: Get is Algorithm 2 as
// webtier.Frontend.fetch runs it (try the new owners, consult the old
// owner's digest during a transition, fall back to the backing store
// and write through), over in-memory stores instead of sockets.
type Harness struct {
	cfg   HarnessConfig
	eng   *Engine
	m     *transition.Machine
	fleet *fleet
}

// HarnessConfig configures a Harness. Servers, InitialActive, TTL, and
// DB are required.
type HarnessConfig struct {
	// Servers is the provisioning-order length.
	Servers int
	// InitialActive is the starting active prefix (>= 1).
	InitialActive int
	// TTL is the transition hot-data window in virtual time.
	TTL time.Duration
	// DigestParams sizes each node's counting filter.
	DigestParams bloom.Params
	// DB resolves a key in the backing store. It must be deterministic
	// for replay; the conformance oracle passes its own versioned map.
	DB func(key string) ([]byte, bool)
	// Faults, when set, is consulted for partitions exactly where the
	// live plane consults it (per-operation Decide, digest snapshots,
	// TransitionStarted). Conformance runs use rule-free injectors —
	// partitions via Partition/Heal only — so both planes observe
	// identical schedules; probability rules would advance per-plane
	// match counters differently (live consults on dial/read/write,
	// the DES on get/set).
	Faults *faultinject.Injector
	// Events, when set, receives the transition timeline on the
	// harness's virtual clock.
	Events *telemetry.EventLog
	// UnsafeEarlyPowerOff is a conformance-test hook: shrink
	// transitions power dying servers off at the ownership flip
	// instead of after the TTL window — the exact premature power-off
	// bug Section IV's safety argument rules out. It exists so the
	// checker's probes and shrinker can be validated against a known
	// violation; production configurations never set it.
	UnsafeEarlyPowerOff bool
	// HotReplicas enables hot-key replication: keys promoted via
	// Promote resolve at this replica depth over seeded rings sharing
	// the primary placement (0 or 1 disables).
	HotReplicas int
	// UnsafeSkipFanout is a conformance-test hook: Set writes the
	// primary owner only, leaving a hot key's replicas holding stale
	// copies — the write-fan-out bug the replica invariant forbids.
	// Production configurations never set it.
	UnsafeSkipFanout bool
	// Backend selects the placement geometry (empty = Algorithm 1); the
	// live plane must be built with the same kind.
	Backend core.BackendKind
}

// NewHarness builds a harness with the initial prefix powered on.
func NewHarness(cfg HarnessConfig) (*Harness, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("sim: harness DB resolver required")
	}
	h := &Harness{
		cfg:   cfg,
		eng:   NewEngine(),
		fleet: &fleet{faults: cfg.Faults},
	}
	for i := 0; i < cfg.Servers; i++ {
		// Unlimited capacity and no per-item TTL: conformance runs
		// keep eviction out of the picture so the oracle's residency
		// mirror is exact.
		node, err := newCacheNode(h.eng, i, 0, 0, cfg.DigestParams, 1)
		if err != nil {
			return nil, err
		}
		h.fleet.nodes = append(h.fleet.nodes, node)
	}
	m, err := transition.New(transition.Config{
		Fleet:         h.fleet,
		Nodes:         cfg.Servers,
		InitialActive: cfg.InitialActive,
		TTL:           cfg.TTL,
		HotReplicas:   cfg.HotReplicas,
		Backend:       cfg.Backend,
		After:         h.eng.Timer,
		Faults:        cfg.Faults,
		Events:        cfg.Events,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: harness: %w", err)
	}
	h.m = m
	return h, nil
}

// Now returns the harness's virtual time.
func (h *Harness) Now() time.Duration { return h.eng.Now() }

// Active returns the current active-prefix size.
func (h *Harness) Active() int { return h.m.Epoch().Active }

// Servers returns the provisioning-order length.
func (h *Harness) Servers() int { return len(h.fleet.nodes) }

// NodeOn reports whether server i is powered.
func (h *Harness) NodeOn(i int) bool { return h.fleet.nodes[i].state == nodeOn }

// InTransition reports whether a smooth-transition window is open.
func (h *Harness) InTransition() bool { return h.m.Epoch().Open() }

// ResidentKeys returns server i's cached keys, sorted.
func (h *Harness) ResidentKeys(i int) []string {
	keys := h.fleet.nodes[i].store.Keys()
	sort.Strings(keys)
	return keys
}

// DigestContains probes server i's live counting filter.
func (h *Harness) DigestContains(i int, key string) bool {
	return h.fleet.nodes[i].digest.Contains(key)
}

// NodeValue reads server i's stored value for key directly (probe
// support; no routing, no migration).
func (h *Harness) NodeValue(i int, key string) ([]byte, bool) {
	return h.fleet.nodes[i].store.Get(key)
}

// Get runs Algorithm 2 for one key under one routing epoch, as
// webtier.Frontend.fetch does, in three phases: probe the key's
// distinct current owners (primary first — the live tier orders by
// load, but the replica invariant makes the answer order-independent);
// during a transition consult each ring's old-owner digest and migrate
// on demand; otherwise fall back to the backing store and write through
// to every owner. ok is false only when the backing store does not know
// the key.
func (h *Harness) Get(key string) (value []byte, src RequestSource, ok bool) {
	ep := h.m.Epoch()
	nodes := h.fleet.nodes
	for _, o := range ep.Owners(key) {
		if h.fleet.reachable(o) {
			if v, hit := nodes[o].store.Get(key); hit {
				return v, SourceHit, true
			}
		}
	}
	// Digest consult (Algorithm 2 lines 6-8), ring by ring. The
	// snapshot digests are immutable; a consult against an unreachable
	// old owner degrades to the database, exactly like the live tier's
	// error path.
	consulted := make([]int, 0, 4)
	for ring, rings := 0, ep.RingsFor(key); ring < rings; ring++ {
		owner, old, tryOld := ep.Route(key, ring)
		if !tryOld || slices.Contains(consulted, old) {
			continue
		}
		consulted = append(consulted, old)
		if !h.fleet.reachable(old) {
			continue
		}
		if v, hit := nodes[old].store.Get(key); hit {
			h.cfg.Events.Record(telemetry.Event{Kind: telemetry.EventMigrationHit, Node: old})
			// Amortized migration: install on the ring's new owner so
			// the next request hits there. An unreachable new owner
			// leaves the key un-migrated, never wrong.
			if h.fleet.reachable(owner) {
				nodes[owner].store.Set(key, v, 0)
			}
			return v, SourceMigrated, true
		}
		h.cfg.Events.Record(telemetry.Event{Kind: telemetry.EventMigrationMiss, Node: old})
	}
	data, found := h.cfg.DB(key)
	if !found {
		return nil, SourceDB, false
	}
	h.fanoutWrite(key, data)
	return data, SourceDB, true
}

// Set installs a new value write-through, as webtier.Update does for
// whole objects: every distinct owner gets the value; an unreachable
// owner stays cold, not wrong. The backing store is the caller's (the
// oracle updates its versioned map before calling). With the
// UnsafeSkipFanout hook the write lands on the primary only — the
// fan-out bug the write-fanout probe exists to catch.
func (h *Harness) Set(key string, value []byte) {
	if h.cfg.UnsafeSkipFanout {
		if owner := h.m.Epoch().Owner(key, 0); h.fleet.reachable(owner) {
			h.fleet.nodes[owner].store.Set(key, value, 0)
		}
		return
	}
	h.fanoutWrite(key, value)
}

// fanoutWrite stores one key on every reachable distinct owner; the
// machine demotes a hot key that missed a copy.
func (h *Harness) fanoutWrite(key string, value []byte) {
	h.m.Fanout(h.m.Epoch(), key, func(o int) bool {
		if !h.fleet.reachable(o) {
			return false
		}
		h.fleet.nodes[o].store.Set(key, value, 0)
		return true
	})
}

// Promote moves a key into the hot set; see transition.Machine.Promote.
func (h *Harness) Promote(key string) bool { return h.m.Promote(key) }

// Demote removes a key from the hot set, reporting whether it was hot.
func (h *Harness) Demote(key string) bool { return h.m.Demote(key) }

// Crash powers a server off outside any provisioning decision, losing
// its in-memory data — the DES counterpart of killing a LocalNode.
func (h *Harness) Crash(server int) {
	if server >= 0 && server < len(h.fleet.nodes) {
		h.fleet.PowerOff(server)
	}
}

// SetActive executes one provisioning decision through the shared
// machine; the TTL deadline it arms is fired by AdvanceClock. A
// *transition.DegradedDigestError reports a flip that happened with an
// unreachable relocation source.
func (h *Harness) SetActive(n int) error {
	flipped, err := h.m.SetActive(n)
	if flipped && h.cfg.UnsafeEarlyPowerOff && h.m.Epoch().Draining() {
		// Conformance-test hook: the premature power-off bug.
		h.m.FinalizeNow()
	}
	return err
}

// AdvanceClock moves virtual time forward, firing the transition
// deadline if the skip reaches it: expiry happens when the schedule
// advances the clock, never behind the explorer's back.
func (h *Harness) AdvanceClock(d time.Duration) { h.eng.Advance(d) }
