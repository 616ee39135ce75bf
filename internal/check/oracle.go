package check

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"proteus/internal/core"
)

// Oracle is the reference model of the whole cluster: a single versioned
// map standing in for the backing store, plus a pure-Go mirror of
// placement ownership, node power states, partitions, the smooth
// transition protocol, and exact digest membership. It consumes the same
// operation stream as the system under test and predicts every
// observable outcome (value, source, residency, power states), which is
// what the conformance probes compare against.
//
// The mirror is exact, not approximate, because the conformance
// configuration pins down every source of divergence: a base depth of
// one ring (hot keys extend to HotReplicas over the shared seeded
// geometry), unlimited cache capacity, no per-item TTL, serial steps,
// and rule-free fault injectors. The only plane behaviour the oracle
// does not model is counting-filter false positives — and those are
// observationally equivalent (an FP consult misses on the old owner
// and degrades to the database, which is exactly what the oracle
// predicts from its exact digest set; see ApplyGet).
type Oracle struct {
	placement  *core.Placement
	replicated *core.Replicated
	hotRings   int
	ttl        time.Duration
	now        time.Duration
	active     int
	flips      int

	db      map[string]string
	version map[string]int

	nodes []*modelNode
	part  map[int]bool
	trans *modelTransition
	hot   map[string]struct{}

	// Hot-sync accounting for the extended migration-bound probe: what
	// the most recent ApplyScale did to re-establish the replica
	// invariant.
	lastSyncInstalls int
	lastSyncHot      int
}

// modelNode mirrors one cache server: power state and exact residency.
// epoch counts data-loss events (crash, power-off), letting probes tell
// "the owner lost the installed copy" from "the plane dropped it".
type modelNode struct {
	on    bool
	store map[string]string
	epoch int
}

// modelTransition mirrors the Section IV window with exact digest
// key-sets (nil for a source that was unreachable at the flip, mirroring
// a failed FetchDigest).
type modelTransition struct {
	from, to int
	digests  []map[string]bool
	deadline time.Duration
}

// NewOracle builds the reference model with the initial prefix powered
// on and every key at version 0 in the backing store. hotReplicas is
// the replica depth promoted keys resolve at (<= 1 disables hot-key
// replication, making the model single-ring exactly as before).
// backend selects the placement geometry (empty = Algorithm 1); both
// execution planes must be built with the same kind.
func NewOracle(backend core.BackendKind, servers, initialActive int, ttl time.Duration, keys []string, hotReplicas int) (*Oracle, error) {
	if servers < 1 {
		return nil, fmt.Errorf("check: oracle needs at least 1 server, got %d", servers)
	}
	if initialActive < 1 || initialActive > servers {
		return nil, fmt.Errorf("check: oracle InitialActive %d out of range 1..%d", initialActive, servers)
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("check: oracle TTL must be positive")
	}
	if hotReplicas < 1 {
		hotReplicas = 1
	}
	// Ring 0 of a Replicated is the unseeded primary placement, so with
	// hot-key replication disabled this routes exactly like the bare
	// backend.
	replicated, err := core.NewReplicatedBackend(backend, servers, hotReplicas)
	if err != nil {
		return nil, err
	}
	o := &Oracle{
		placement:  replicated.Placement(),
		replicated: replicated,
		hotRings:   hotReplicas,
		ttl:        ttl,
		active:     initialActive,
		db:         make(map[string]string, len(keys)),
		version:    make(map[string]int, len(keys)),
		part:       make(map[int]bool),
		hot:        make(map[string]struct{}),
	}
	for i := 0; i < servers; i++ {
		o.nodes = append(o.nodes, &modelNode{on: i < initialActive, store: make(map[string]string)})
	}
	for _, k := range keys {
		o.db[k] = versioned(k, 0)
	}
	return o, nil
}

// versioned renders the value the backing store holds for key at a
// given write version.
func versioned(key string, v int) string {
	return fmt.Sprintf("%s#v%d", key, v)
}

// DBValue resolves a key in the model's backing store; planes read
// through this so oracle and system always see one store.
func (o *Oracle) DBValue(key string) (string, bool) {
	v, ok := o.db[key]
	return v, ok
}

// Reachable reports whether an operation against server i would
// succeed: powered on and not partitioned away.
func (o *Oracle) Reachable(i int) bool {
	return o.nodes[i].on && !o.part[i]
}

// ApplySet advances the key's version in the backing store and mirrors
// the write-through (webtier.Update, whole objects): every distinct
// owner takes the value if reachable; a hot key that missed a copy is
// demoted, exactly as the plane's storeAll auto-demote rule. It
// returns the new value, which the runner hands to the plane.
func (o *Oracle) ApplySet(key string) string {
	o.version[key]++
	val := versioned(key, o.version[key])
	o.db[key] = val
	o.fanoutWrite(key, val)
	return val
}

// fanoutWrite models the write fan-out rule (Machine.Fanout): the
// value lands on every reachable distinct owner; any failed copy of a
// multi-owner write demotes the key.
func (o *Oracle) fanoutWrite(key, val string) {
	owners := o.owners(key)
	failed := false
	for _, s := range owners {
		if o.Reachable(s) {
			o.nodes[s].store[key] = val
		} else {
			failed = true
		}
	}
	if failed && len(owners) > 1 {
		delete(o.hot, key)
	}
}

// ApplyGet predicts and mirrors Algorithm 2 for one key, exactly as
// webtier.Frontend.fetch runs it, in three phases: probe the distinct
// current owners (order-independent under the replica invariant, so
// the live tier's load-aware ordering needs no modelling); during a
// transition consult each ring's old-owner broadcast digest and
// migrate on demand; otherwise fall back to the backing store and
// write through to every owner.
func (o *Oracle) ApplyGet(key string) (value string, src Source, found bool) {
	for _, s := range o.owners(key) {
		if o.Reachable(s) {
			if v, ok := o.nodes[s].store[key]; ok {
				return v, SourceHit, true
			}
		}
	}
	if tr := o.trans; tr != nil {
		var consulted []int
		rings := o.ringsFor(key)
		for ring := 0; ring < rings; ring++ {
			owner := o.replicated.OwnerOnRing(key, ring, o.active)
			old := o.replicated.OwnerOnRing(key, ring, tr.from)
			if old == owner || tr.digests[old] == nil || !tr.digests[old][key] {
				continue
			}
			if slices.Contains(consulted, old) {
				continue
			}
			consulted = append(consulted, old)
			if !o.Reachable(old) {
				continue
			}
			if v, ok := o.nodes[old].store[key]; ok {
				if o.Reachable(owner) {
					o.nodes[owner].store[key] = v
				}
				return v, SourceMigrated, true
			}
			// Unreachable in practice: the exact digest set is a snapshot
			// of residency at the flip, and an old owner distinct from the
			// current owner never loses a key except by crashing (which
			// makes it unreachable). Kept for structural fidelity with
			// Algorithm 2's false-positive branch.
		}
	}
	v, ok := o.db[key]
	if !ok {
		return "", SourceDB, false
	}
	o.fanoutWrite(key, v)
	return v, SourceDB, true
}

// ApplyScale models Machine.SetActive: finalize any pending
// window, power on growth, snapshot exact digest sets of every reachable
// relocation source, flip routing, arm the TTL deadline. degraded counts
// relocation sources whose digest snapshot failed (unreachable), which
// the live plane surfaces as a non-fatal SetActive error.
func (o *Oracle) ApplyScale(n int) (degraded int, err error) {
	if n < 1 || n > len(o.nodes) {
		return 0, fmt.Errorf("check: oracle target %d out of range 1..%d", n, len(o.nodes))
	}
	if n == o.active && o.trans == nil {
		return 0, nil
	}
	o.finalize()
	from := o.active
	if n == from {
		return 0, nil
	}
	if n > from {
		for i := from; i < n; i++ {
			o.nodes[i].on = true
		}
	}
	digests := make([]map[string]bool, len(o.nodes))
	lo, hi := n, from // shrink: dying nodes [n, from) hold the re-mapped keys
	if n > from {
		lo, hi = 0, from // growth: every old-prefix node may hold re-mapped keys
	}
	for i := lo; i < hi; i++ {
		if !o.Reachable(i) {
			degraded++
			continue
		}
		set := make(map[string]bool, len(o.nodes[i].store))
		for k := range o.nodes[i].store {
			set[k] = true
		}
		digests[i] = set
	}
	o.trans = &modelTransition{from: from, to: n, digests: digests, deadline: o.now + o.ttl}
	o.active = n
	o.flips++
	o.hotSyncAfterFlip()
	return degraded, nil
}

// ApplyCrash powers a server off outside any provisioning decision,
// losing its data.
func (o *Oracle) ApplyCrash(i int) {
	if i < 0 || i >= len(o.nodes) {
		return
	}
	if o.nodes[i].on {
		o.powerOff(i)
	}
}

// ApplyPartition blackholes a server. Its data survives (a partition is
// a network fault, not a power fault), so the node's epoch is unchanged.
func (o *Oracle) ApplyPartition(i int) {
	if i >= 0 && i < len(o.nodes) {
		o.part[i] = true
	}
}

// ApplyHeal lifts a partition.
func (o *Oracle) ApplyHeal(i int) {
	if i >= 0 && i < len(o.nodes) {
		delete(o.part, i)
	}
}

// ApplyAdvance moves the model clock, firing the transition deadline if
// the skip crosses it.
func (o *Oracle) ApplyAdvance(d time.Duration) {
	if d <= 0 {
		return
	}
	o.now += d
	if o.trans != nil && o.now >= o.trans.deadline {
		o.finalize()
	}
}

func (o *Oracle) finalize() {
	if o.trans == nil {
		return
	}
	tr := o.trans
	o.trans = nil
	if tr.to < tr.from {
		for i := tr.to; i < tr.from; i++ {
			if o.nodes[i].on {
				o.powerOff(i)
			}
		}
	}
}

func (o *Oracle) powerOff(i int) {
	o.nodes[i].on = false
	o.nodes[i].store = make(map[string]string)
	o.nodes[i].epoch++
}

// Now returns the model clock.
func (o *Oracle) Now() time.Duration { return o.now }

// Active returns the model's active-prefix size.
func (o *Oracle) Active() int { return o.active }

// Servers returns the provisioning-order length.
func (o *Oracle) Servers() int { return len(o.nodes) }

// NodeOn reports the model power state of server i.
func (o *Oracle) NodeOn(i int) bool { return o.nodes[i].on }

// Epoch returns server i's data-loss epoch.
func (o *Oracle) Epoch(i int) int { return o.nodes[i].epoch }

// InTransition reports whether the model window is open and its bounds.
func (o *Oracle) InTransition() (open bool, from, to int) {
	if o.trans == nil {
		return false, 0, 0
	}
	return true, o.trans.from, o.trans.to
}

// Flips returns the number of ownership flips so far (the transition
// ordinal used by the double-migration probe).
func (o *Oracle) Flips() int { return o.flips }

// Owner returns the key's current owner under the model's routing.
func (o *Oracle) Owner(key string) int { return o.replicated.OwnerOnRing(key, 0, o.active) }

// Resident returns the model's resident keys on server i, sorted.
func (o *Oracle) Resident(i int) []string {
	keys := make([]string, 0, len(o.nodes[i].store))
	for k := range o.nodes[i].store {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Placement exposes the deterministic placement for the exact-rational
// geometry probes (balance condition, migration bound). It is nil for
// the O(1) backends, whose probes sample through Backend instead.
func (o *Oracle) Placement() *core.Placement { return o.placement }

// Backend exposes the placement geometry shared by both planes.
func (o *Oracle) Backend() core.Backend { return o.replicated.Backend() }
