package sim

import (
	"fmt"
	"sort"
	"time"

	"proteus/internal/bloom"
	"proteus/internal/core"
	"proteus/internal/faultinject"
	"proteus/internal/telemetry"
	"proteus/internal/transition"
)

// Harness is the DES cluster of the conformance checker
// (internal/check): the same substrate the figure-replay runner uses —
// Engine virtual clock, cache.Cache stores with counting-filter
// digests, the shared Section IV machine (internal/transition) — but
// driven one operation at a time by an external schedule instead of a
// closed workload loop. Every method is synchronous in virtual time and
// the whole state is a pure function of the operation sequence, so the
// explorer can interleave client ops, transitions, faults, and clock
// skips arbitrarily and replay them byte-for-byte.
//
// It is engine + nodes + machine + node inspection and has no request
// path: the checker runs webtier.Frontend — the Algorithm 2 that ships —
// over Tier, so transitions, the hot set and requests all run the code
// the live stack runs, over in-memory stores instead of sockets.
type Harness struct {
	earlyPowerOff bool
	eng           *Engine
	m             *transition.Machine
	fleet         *fleet
}

// HarnessConfig configures a Harness. Servers, InitialActive and TTL
// are required.
type HarnessConfig struct {
	// Servers is the provisioning-order length.
	Servers int
	// InitialActive is the starting active prefix (>= 1).
	InitialActive int
	// TTL is the transition hot-data window in virtual time.
	TTL time.Duration
	// DigestParams sizes each node's counting filter.
	DigestParams bloom.Params
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
	// Backend selects the placement geometry (empty = Algorithm 1); the
	// live plane must be built with the same kind.
	Backend core.BackendKind
}

// NewHarness builds a harness with the initial prefix powered on.
func NewHarness(cfg HarnessConfig) (*Harness, error) {
	h := &Harness{
		earlyPowerOff: cfg.UnsafeEarlyPowerOff,
		eng:           NewEngine(),
		fleet:         &fleet{faults: cfg.Faults},
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

// ResidentKeys returns server i's cached keys, sorted; nil when off.
func (h *Harness) ResidentKeys(i int) []string {
	if !h.NodeOn(i) {
		return nil
	}
	keys := h.fleet.nodes[i].store.Keys()
	sort.Strings(keys)
	return keys
}

// DigestContains probes server i's live counting filter; false when
// off.
func (h *Harness) DigestContains(i int, key string) bool {
	return h.NodeOn(i) && h.fleet.nodes[i].digest.Contains(key)
}

// NodeValue reads server i's stored value for key directly (probe
// support; no routing, no migration); false when off.
func (h *Harness) NodeValue(i int, key string) ([]byte, bool) {
	if !h.NodeOn(i) {
		return nil, false
	}
	return h.fleet.nodes[i].store.Get(key)
}

// Tier is the harness's servers as a front end sees them
// (webtier.CacheTier): routing epochs and the fan-out rule from the
// machine, data operations from the fleet by node index.
type Tier struct {
	*fleet
	m *transition.Machine
}

// Tier returns the cache tier a webtier.Frontend runs over.
func (h *Harness) Tier() Tier { return Tier{h.fleet, h.m} }

// Epoch returns the machine's current routing state.
func (t Tier) Epoch() *transition.Epoch { return t.m.Epoch() }

// Fanout is transition.Machine.Fanout.
func (t Tier) Fanout(e *transition.Epoch, key string, write func(owner int) bool) {
	t.m.Fanout(e, key, write)
}

// ObserveGet does nothing: the schedule drives the hot set by verb.
func (Tier) ObserveGet(string) {}

// LoadEstimate is always 0: with no load signal a hot key's owners are
// probed in ring order, which the replica invariant makes
// answer-equivalent to the live tier's least-loaded-first.
func (Tier) LoadEstimate(int) float64 { return 0 }

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
	if flipped && h.earlyPowerOff && h.m.Epoch().Draining() {
		// Conformance-test hook: the premature power-off bug.
		h.m.FinalizeNow()
	}
	return err
}

// AdvanceClock moves virtual time forward, firing the transition
// deadline if the skip reaches it: expiry happens when the schedule
// advances the clock, never behind the explorer's back.
func (h *Harness) AdvanceClock(d time.Duration) { h.eng.Advance(d) }
