// Package cluster is the Proteus provisioning actuator for a real
// (networked) cache fleet: it owns the fixed provisioning order, the
// deterministic placement, and the smooth-transition protocol of
// Section IV — broadcast digests, re-route, and power servers off only
// after the TTL window during which hot data migrates on demand. The
// paper's point that any provisioning *policy* can sit on top is
// honoured by the Controller type (a delay-feedback policy like the
// evaluation's) being separate from the actuator.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"proteus/internal/bloom"
	"proteus/internal/cacheclient"
	"proteus/internal/core"
	"proteus/internal/faultinject"
	"proteus/internal/hotkey"
	"proteus/internal/telemetry"
)

// Node abstracts one controllable cache server in the fixed
// provisioning order.
type Node interface {
	// Addr returns the server's memcached-protocol address.
	Addr() string
	// PowerOn boots the server; it must be reachable on return.
	PowerOn() error
	// PowerOff shuts it down, losing in-memory data.
	PowerOff() error
}

// Config configures a Coordinator.
type Config struct {
	// Nodes is the fixed provisioning order (s1..sN); index 0 is never
	// powered off.
	Nodes []Node
	// InitialActive is the number of nodes already running (>=1).
	InitialActive int
	// TTL is the hot-data window: how long a transition keeps old
	// owners alive for on-demand migration.
	TTL time.Duration
	// Replicas enables Section III-E replication: r hashing rings over
	// one shared placement (0 or 1 disables). Every key is stored at
	// this depth.
	Replicas int
	// HotReplicas enables hot-key replication: keys promoted into the
	// hot set are resolved at this replica depth (0 or 1 disables).
	// Cold keys stay at Replicas depth; because ring k's owners are a
	// prefix of ring k+1's, the two layers share one geometry.
	HotReplicas int
	// Backend selects the placement geometry: core.BackendProteus
	// (Algorithm 1, the default for the empty value), core.BackendPCH
	// (O(1) power consistent hash) or core.BackendJump. Every ring —
	// base replication and hot-key — uses the same backend, so all
	// consumers flip in lockstep.
	Backend core.BackendKind
	// HotTracker, when non-nil, enables online hot-key detection: the
	// web tier feeds ObserveGet, and window-boundary decisions from the
	// space-saving tracker drive Promote/Demote automatically. Nil
	// leaves the hot set under explicit control (the conformance
	// harness drives it through schedule verbs).
	HotTracker *hotkey.TrackerConfig
	// NewClient builds a protocol client for a node address; nil uses
	// cacheclient.New defaults (honouring ClientMaxConns below).
	NewClient func(addr string) *cacheclient.Client
	// ClientMaxConns bounds each default-built client's connection pool;
	// 0 uses cacheclient.DefaultMaxConns. Ignored when NewClient is set
	// (a custom constructor owns its own options).
	ClientMaxConns int
	// After schedules delayed work (the TTL expiry); nil uses
	// time.AfterFunc. Tests inject a manual trigger.
	After func(d time.Duration, fn func()) (cancel func())
	// Faults, when non-nil, hooks the fault injector into the control
	// plane: KindCrash rules power nodes off via the injector's OnCrash
	// hook, and every SetActive transition is reported through
	// TransitionStarted so OpTransition rules fire at the same ordinals
	// in the live cluster as in the simulator.
	Faults *faultinject.Injector
	// Telemetry receives the coordinator's transition counters and the
	// active-prefix gauge. Optional.
	Telemetry *telemetry.Registry
	// Events receives the transition timeline (power on/off, digest
	// build/broadcast, ownership flip, TTL expiry). Optional.
	Events *telemetry.EventLog
}

// Coordinator executes provisioning decisions over a live fleet. It is
// safe for concurrent use; Route is wait-free with respect to
// provisioning (readers see a consistent snapshot).
type Coordinator struct {
	placement   *core.Placement
	replicated  *core.Replicated
	baseRings   int // Section III-E depth: every key is stored this deep
	hotReplicas int // promoted keys are stored this deep (>= baseRings)
	nodes       []Node
	clients     []*cacheclient.Client
	ttl         time.Duration
	after       func(time.Duration, func()) func()
	faults      *faultinject.Injector

	hotMu    sync.RWMutex
	hotSet   map[string]struct{}
	hotEpoch uint64

	trackerMu sync.Mutex
	tracker   *hotkey.Tracker

	events          *telemetry.EventLog
	transitions     *telemetry.Counter
	digestSnapshots *telemetry.Counter
	digestFailures  *telemetry.Counter
	powerOns        *telemetry.Counter
	powerOffs       *telemetry.Counter
	activeGauge     *telemetry.Gauge

	// provMu serializes provisioning operations (SetActive, transition
	// finalization, Close) end to end, including the node power
	// actuation they perform. The routing lock mu below is held only
	// for short state flips, never across power actuation or network
	// I/O, so request routing is never stalled behind a slow power-off
	// (a node draining connections can take seconds — exactly the
	// latency spike the smooth transition exists to avoid).
	// Lock order: provMu before mu; mu is never held while acquiring
	// provMu.
	provMu sync.Mutex

	mu       sync.RWMutex
	active   int
	trans    *Transition
	transGen uint64 // incremented per installed transition; stale TTL callbacks no-op
	cancel   func()
	closed   bool
}

// Transition is the in-flight smooth-transition window.
type Transition struct {
	FromActive int
	ToActive   int
	// Digests holds the broadcast content digests, indexed by node;
	// nil entries were not snapshotted.
	Digests []*bloom.Filter
	// Deadline is when old owners may be powered off.
	Deadline time.Time
}

// ErrClosed is returned after Close.
var ErrClosed = errors.New("cluster: coordinator closed")

// New builds a Coordinator and powers on the initial prefix.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: at least one node required")
	}
	if cfg.InitialActive < 1 || cfg.InitialActive > len(cfg.Nodes) {
		return nil, fmt.Errorf("cluster: InitialActive %d out of range 1..%d", cfg.InitialActive, len(cfg.Nodes))
	}
	if cfg.TTL <= 0 {
		return nil, errors.New("cluster: TTL must be positive")
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.HotReplicas < 1 {
		cfg.HotReplicas = 1
	}
	if cfg.HotReplicas < cfg.Replicas {
		cfg.HotReplicas = cfg.Replicas
	}
	// One geometry serves both layers: rings [0, Replicas) hold every
	// key, promoted keys extend into rings [Replicas, HotReplicas).
	replicated, err := core.NewReplicatedBackend(cfg.Backend, len(cfg.Nodes), cfg.HotReplicas)
	if err != nil {
		return nil, err
	}
	placement := replicated.Placement()
	newClient := cfg.NewClient
	if newClient == nil {
		maxConns := cfg.ClientMaxConns
		newClient = func(addr string) *cacheclient.Client {
			if maxConns > 0 {
				return cacheclient.New(addr, cacheclient.WithMaxConns(maxConns))
			}
			return cacheclient.New(addr)
		}
	}
	after := cfg.After
	if after == nil {
		after = func(d time.Duration, fn func()) func() {
			t := time.AfterFunc(d, fn)
			return func() { t.Stop() }
		}
	}
	c := &Coordinator{
		placement:   placement,
		replicated:  replicated,
		baseRings:   cfg.Replicas,
		hotReplicas: cfg.HotReplicas,
		nodes:       cfg.Nodes,
		ttl:         cfg.TTL,
		after:       after,
		faults:      cfg.Faults,
		events:      cfg.Events,
		active:      cfg.InitialActive,
		hotSet:      make(map[string]struct{}),
	}
	if cfg.HotTracker != nil && cfg.HotReplicas > cfg.Replicas {
		c.tracker = hotkey.NewTracker(*cfg.HotTracker)
	}
	phases := cfg.Telemetry.Counter("proteus_cluster_phase_total",
		"smooth-transition protocol phases executed, by phase", "phase")
	c.transitions = phases.With("transition")
	c.digestSnapshots = phases.With("digest_snapshot")
	c.digestFailures = phases.With("digest_failure")
	c.powerOns = phases.With("power_on")
	c.powerOffs = phases.With("power_off")
	c.activeGauge = cfg.Telemetry.Gauge("proteus_cluster_active_nodes",
		"current active-prefix size").With()
	c.activeGauge.Set(float64(cfg.InitialActive))
	if c.faults != nil {
		c.faults.OnCrash(func(server int) {
			if server >= 0 && server < len(c.nodes) {
				_ = c.nodes[server].PowerOff()
			}
		})
	}
	for i := 0; i < cfg.InitialActive; i++ {
		if err := cfg.Nodes[i].PowerOn(); err != nil {
			return nil, fmt.Errorf("cluster: powering on node %d: %w", i, err)
		}
		c.powerOns.Inc()
		c.events.Record(telemetry.Event{Kind: telemetry.EventPowerOn, Node: i})
	}
	c.clients = make([]*cacheclient.Client, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		c.clients[i] = newClient(n.Addr())
	}
	return c, nil
}

// Placement exposes the shared routing table when the backend is
// Algorithm 1, and nil for the O(1) backends (route through Route /
// RouteRing instead).
func (c *Coordinator) Placement() *core.Placement { return c.placement }

// Backend returns the placement geometry in use.
func (c *Coordinator) Backend() core.Backend { return c.replicated.Backend() }

// Replicas returns the Section III-E replication factor applied to
// every key (1 when disabled). Promoted keys go deeper; see
// HotReplicas and RingsFor.
func (c *Coordinator) Replicas() int { return c.baseRings }

// Active returns the current active-prefix size.
func (c *Coordinator) Active() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.active
}

// Client returns the protocol client for node i.
func (c *Coordinator) Client(i int) *cacheclient.Client { return c.clients[i] }

// InTransition reports whether a smooth transition is in progress.
func (c *Coordinator) InTransition() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.trans != nil
}

// Draining reports whether a scale-down's TTL window is still open:
// dying servers are serving hot data for on-demand migration and must
// not be powered off early. Provisioning policy actuation gates
// scale-downs on this (see Supervisor.tick and provision.State).
func (c *Coordinator) Draining() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.trans != nil && c.trans.ToActive < c.trans.FromActive
}

// CurrentTransition returns a snapshot of the in-flight transition, or
// nil when the cluster is stable. The digest slice is shared (digests
// are immutable); the struct itself is a copy.
func (c *Coordinator) CurrentTransition() *Transition {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.trans == nil {
		return nil
	}
	snapshot := *c.trans
	return &snapshot
}

// Route is the web tier's per-request routing decision: the new owner
// index, plus — during a transition, when the key's old owner differs
// and its digest claims the key is hot — the old owner to try first
// for on-demand migration (Algorithm 2 lines 6-8).
func (c *Coordinator) Route(key string) (newOwner int, oldOwner int, tryOld bool) {
	return c.RouteRing(key, 0)
}

// RouteRing is Route on one replication ring (ring 0 is the primary).
// With replication enabled, a key is stored on its owner on every ring
// (Section III-E); the web tier reads through the rings in order.
func (c *Coordinator) RouteRing(key string, ring int) (newOwner int, oldOwner int, tryOld bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	newOwner = c.replicated.OwnerOnRing(key, ring, c.active)
	if c.trans == nil {
		return newOwner, 0, false
	}
	old := c.replicated.OwnerOnRing(key, ring, c.trans.FromActive)
	if old == newOwner {
		return newOwner, 0, false
	}
	digest := c.trans.Digests[old]
	if digest == nil || !digest.Contains(key) {
		return newOwner, 0, false
	}
	return newOwner, old, true
}

// WriteOwners returns the distinct servers that must store the key at
// the current active-prefix size (one per ring, deduplicated; ring
// collisions reduce the copy count, Eq. 3). Hot keys resolve at the
// deeper HotReplicas depth.
func (c *Coordinator) WriteOwners(key string) []int {
	rings := c.RingsFor(key)
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.replicated.DistinctOwnersN(key, c.active, rings)
}

// SetActive executes one provisioning decision: grow or shrink the
// active prefix to n with a smooth transition. A decision arriving
// while a transition is pending finalizes the pending one first.
func (c *Coordinator) SetActive(n int) error {
	c.provMu.Lock()
	defer c.provMu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if n < 1 || n > len(c.nodes) {
		c.mu.Unlock()
		return fmt.Errorf("cluster: target %d out of range 1..%d", n, len(c.nodes))
	}
	if n == c.active && c.trans == nil {
		c.mu.Unlock()
		return nil
	}
	expired := c.finalizeLocked()
	from := c.active
	c.mu.Unlock()
	//lint:allow lockorder provMu is the provisioning serialization lock, held across power actuation by design; request routing takes only mu and never waits on provMu
	c.powerOffExpired(expired)

	if n == from {
		return nil
	}
	if n > from {
		// Boot the new servers before re-routing anything to them.
		for i := from; i < n; i++ {
			if err := c.nodes[i].PowerOn(); err != nil {
				return fmt.Errorf("cluster: powering on node %d: %w", i, err)
			}
			c.powerOns.Inc()
			c.events.Record(telemetry.Event{Kind: telemetry.EventPowerOn, Node: i})
		}
	}

	// Broadcast: snapshot the digest of every old owner that may hold
	// hot data for re-mapped keys (all running old-prefix nodes; when
	// shrinking, only the dying nodes' keys move, but snapshotting the
	// prefix is correct in both directions and matches the paper's
	// "digests will be broadcasted" step).
	digests := make([]*bloom.Filter, len(c.nodes))
	lo, hi := relocationSources(from, n)
	var firstErr error
	for i := lo; i < hi; i++ {
		d, err := c.clients[i].FetchDigest()
		if err != nil {
			// A node that cannot produce a digest degrades that node's
			// keys to the database path; the transition still proceeds.
			c.digestFailures.Inc()
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: digest from node %d: %w", i, err)
			}
			continue
		}
		c.digestSnapshots.Inc()
		c.events.Record(telemetry.Event{Kind: telemetry.EventDigestBuild, Node: i})
		digests[i] = d
	}
	c.events.Record(telemetry.Event{Kind: telemetry.EventDigestBroadcast, Node: -1})

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.trans = &Transition{FromActive: from, ToActive: n, Digests: digests, Deadline: time.Now().Add(c.ttl)}
	c.active = n
	c.transGen++
	gen := c.transGen
	c.cancel = c.after(c.ttl, func() { c.expireTransition(gen) })
	c.mu.Unlock()
	c.transitions.Inc()
	c.activeGauge.Set(float64(n))
	c.events.Record(telemetry.Event{Kind: telemetry.EventOwnershipFlip, Node: -1, From: from, To: n})
	if c.faults != nil {
		// Fire OpTransition rules (crash/partition at this transition
		// ordinal) after the new routing table is installed, so a crash
		// here lands mid-transition, the hardest point for correctness.
		c.faults.TransitionStarted()
	}
	// The flip may have handed a hot key an owner set containing a node
	// with a stale copy from an earlier hot era (scale-back returns old
	// replicas to duty); re-establish the replica invariant before any
	// reads race the copies.
	c.hotSyncAfterFlip()
	return firstErr
}

// relocationSources returns the node index range whose keys move when
// the prefix changes from -> to: the full old prefix when growing, the
// dying suffix when shrinking.
func relocationSources(from, to int) (lo, hi int) {
	if to > from {
		return 0, from
	}
	return to, from
}

// expireTransition is the TTL callback for transition generation gen.
// A stale callback — one whose transition was already finalized by a
// later SetActive while the callback waited for provMu — must not
// finalize the transition that replaced it.
func (c *Coordinator) expireTransition(gen uint64) {
	c.provMu.Lock()
	defer c.provMu.Unlock()
	c.mu.Lock()
	if c.transGen != gen {
		c.mu.Unlock()
		return
	}
	tr := c.finalizeLocked()
	c.mu.Unlock()
	//lint:allow lockorder provMu is the provisioning serialization lock, held across power actuation by design; request routing takes only mu and never waits on provMu
	c.powerOffExpired(tr)
}

// finalizeLocked ends the transition window's routing bookkeeping:
// after TTL every still-hot key has migrated, so the routing state
// forgets the old prefix and the TTL timer is cancelled. It returns
// the finalized transition; the caller must pass it to
// powerOffExpired after releasing mu (and while holding provMu), so
// dying servers drain without stalling request routing.
func (c *Coordinator) finalizeLocked() *Transition {
	if c.trans == nil {
		return nil
	}
	if c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
	tr := c.trans
	c.trans = nil
	return tr
}

// powerOffExpired powers off a finalized transition's dying nodes and
// emits the finalization events. It runs under provMu only — never
// under mu — because powering a node off blocks on connection drain.
func (c *Coordinator) powerOffExpired(tr *Transition) {
	if tr == nil {
		return
	}
	if tr.ToActive < tr.FromActive {
		for i := tr.ToActive; i < tr.FromActive; i++ {
			// Best-effort: a node that fails to power off keeps burning
			// power but stays correct.
			_ = c.nodes[i].PowerOff()
			// The pooled connections died with the node. Dropping them
			// here, and the breaker state with them, lets a regrow dial
			// the power-cycled node fresh; left in the pool they are
			// found dead one failed operation at a time, enough of them
			// to open the breaker against a healthy node.
			c.clients[i].DropIdle()
			c.powerOffs.Inc()
			c.events.Record(telemetry.Event{Kind: telemetry.EventPowerOff, Node: i})
		}
	}
	c.events.Record(telemetry.Event{Kind: telemetry.EventTTLExpiry, Node: -1, From: tr.FromActive, To: tr.ToActive})
}

// FinalizeNow ends a pending transition immediately (tests, shutdown).
func (c *Coordinator) FinalizeNow() {
	c.provMu.Lock()
	defer c.provMu.Unlock()
	c.mu.Lock()
	tr := c.finalizeLocked()
	c.mu.Unlock()
	//lint:allow lockorder provMu is the provisioning serialization lock, held across power actuation by design; request routing takes only mu and never waits on provMu
	c.powerOffExpired(tr)
}

// Close finalizes any transition and releases all clients. Nodes are
// left in their current power state.
func (c *Coordinator) Close() {
	c.provMu.Lock()
	defer c.provMu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	tr := c.finalizeLocked()
	c.mu.Unlock()
	//lint:allow lockorder provMu is the provisioning serialization lock, held across power actuation by design; request routing takes only mu and never waits on provMu
	c.powerOffExpired(tr)
	for _, cl := range c.clients {
		cl.Close()
	}
}
