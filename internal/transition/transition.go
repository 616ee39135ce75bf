// Package transition is the smooth-transition protocol of Section IV,
// written once: snapshot the relocation sources' digests, flip
// ownership, serve Algorithm 2 from the old owners for TTL, then power
// the dying servers off — plus the hot-key set that rides on the same
// geometry. The live coordinator (internal/cluster), the conformance
// harness and the figure runner (internal/sim) are drivers over this
// machine: each supplies a Fleet of servers and a timer, and none
// re-implements a step. check.Oracle stays a separate reference model
// on purpose; a model that shared this code could not catch its bugs.
//
// Every state the machine reaches is published as an immutable Epoch
// behind one atomic pointer. A request loads the epoch once and routes
// with it; nothing a request reads is ever locked. The provisioning
// lock covers what is slow — power actuation and network I/O — and is
// taken only by provisioning operations.
//
// The package is replay-critical: time enters only through the
// injected After, so the simulator's runs stay a pure function of
// their inputs.
package transition

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"proteus/internal/bloom"
	"proteus/internal/core"
	"proteus/internal/faultinject"
	"proteus/internal/telemetry"
)

// Fleet is the machine's view of the servers it provisions, addressed
// by index in the fixed provisioning order. An error from any method
// but PowerOn means "unreachable right now" and degrades the step that
// asked; it never aborts a transition.
type Fleet interface {
	// PowerOn boots the server; it must be reachable on return.
	PowerOn(node int) error
	// PowerOff shuts the server down, losing its in-memory data.
	// Best-effort: a server that fails to power off keeps burning power
	// but stays correct.
	PowerOff(node int)
	// Digest snapshots the server's content digest for broadcast.
	Digest(node int) (*bloom.Filter, error)
	// Ping reports whether the server answers.
	Ping(node int) error
	// Get, Set and Delete act on one server's store directly (no
	// routing); the hot-set sync copies the primary's state with them,
	// and the web tier runs Algorithm 2 over the same three. Get may
	// read the value into buf's capacity, so the value may alias buf;
	// the machine passes nil.
	Get(node int, key string, buf []byte) (value []byte, found bool, err error)
	Set(node int, key string, value []byte) error
	Delete(node int, key string) (existed bool, err error)
}

// Config configures a Machine. Fleet, Nodes, InitialActive, TTL and
// After are required.
type Config struct {
	Fleet Fleet
	// Nodes is the provisioning-order length (s1..sN); index 0 is never
	// powered off.
	Nodes int
	// InitialActive is the starting active prefix (>= 1).
	InitialActive int
	// TTL is the hot-data window: how long a transition keeps the old
	// owners alive for on-demand migration.
	TTL time.Duration
	// Replicas is the Section III-E depth every key is stored at (0 or
	// 1 disables replication).
	Replicas int
	// HotReplicas is the depth promoted keys resolve at; values not
	// above Replicas disable hot-key replication. Ring k's owners are a
	// prefix of ring k+1's, so both layers share one geometry.
	HotReplicas int
	// Backend selects the placement geometry (empty = Algorithm 1).
	Backend core.BackendKind
	// After schedules the TTL expiry. A cancel that does nothing is
	// allowed: a stale expiry is recognised by its generation.
	After func(d time.Duration, fn func()) (cancel func())
	// Faults, when non-nil, is told of every ownership flip
	// (TransitionStarted), so OpTransition rules fire at the same
	// ordinals on every plane.
	Faults *faultinject.Injector
	// Events receives the transition timeline. Optional.
	Events *telemetry.EventLog
}

// ErrClosed is returned by SetActive after Close.
var ErrClosed = errors.New("transition: machine closed")

// DegradedDigestError is returned by SetActive for a transition that
// was installed — ownership did flip — although some relocation
// sources could not produce a digest. Their keys take the database
// path for this window instead of migrating on demand.
type DegradedDigestError struct {
	From, To int
	// Nodes are the sources without a digest, ascending.
	Nodes []int
	// Err is the first failure.
	Err error
}

func (e *DegradedDigestError) Error() string {
	return fmt.Sprintf("transition: flipped %d -> %d without a digest from nodes %v: %v", e.From, e.To, e.Nodes, e.Err)
}

func (e *DegradedDigestError) Unwrap() error { return e.Err }

// Machine runs the protocol over a Fleet. It is safe for concurrent
// use.
type Machine struct {
	fleet  Fleet
	nodes  int
	ttl    time.Duration
	after  func(time.Duration, func()) func()
	faults *faultinject.Injector
	events *telemetry.EventLog

	epoch atomic.Pointer[Epoch]

	// prov serializes provisioning; see serialized. The fields below it
	// are its state.
	prov   sync.Mutex
	gen    uint64 // one per installed window; a stale expiry no-ops
	cancel func()
	closed bool
}

// New builds a machine and powers on the initial prefix.
func New(cfg Config) (*Machine, error) {
	if cfg.Fleet == nil || cfg.After == nil {
		return nil, errors.New("transition: Fleet and After are required")
	}
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("transition: at least one node required, got %d", cfg.Nodes)
	}
	if cfg.InitialActive < 1 || cfg.InitialActive > cfg.Nodes {
		return nil, fmt.Errorf("transition: InitialActive %d out of range 1..%d", cfg.InitialActive, cfg.Nodes)
	}
	if cfg.TTL <= 0 {
		return nil, errors.New("transition: TTL must be positive")
	}
	base := max(cfg.Replicas, 1)
	hot := max(cfg.HotReplicas, base)
	// One geometry serves both layers: rings [0, base) hold every key,
	// promoted keys extend into rings [base, hot).
	geo, err := core.NewReplicatedBackend(cfg.Backend, cfg.Nodes, hot)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		fleet:  cfg.Fleet,
		nodes:  cfg.Nodes,
		ttl:    cfg.TTL,
		after:  cfg.After,
		faults: cfg.Faults,
		events: cfg.Events,
	}
	m.epoch.Store(&Epoch{
		Active: cfg.InitialActive, From: cfg.InitialActive,
		geo: geo, baseRings: base, hotRings: hot,
	})
	if err := m.powerOn(0, cfg.InitialActive); err != nil {
		return nil, err
	}
	return m, nil
}

// Epoch returns the current routing state. Load it once per request
// and route with the result.
func (m *Machine) Epoch() *Epoch { return m.epoch.Load() }

// update publishes the epoch mutate derives from the current one. A
// publisher outside the provisioning lock (a demote on a request path)
// may get in between; the derivation is then redone from its epoch.
// mutate returns false to publish nothing.
func (m *Machine) update(mutate func(next *Epoch) bool) (*Epoch, bool) {
	for {
		cur := m.epoch.Load()
		next := *cur
		next.Seq++
		if !mutate(&next) {
			return cur, false
		}
		if m.epoch.CompareAndSwap(cur, &next) {
			return &next, true
		}
	}
}

// serialized runs one provisioning operation (SetActive, the TTL
// expiry, FinalizeNow, Close) under the provisioning lock, end to end:
// the lock is held across the power actuation and digest fetches the
// operation performs, so the fleet's power state always tracks the
// published epoch. That can take seconds — a node draining connections
// — which is why this is the only place the lock is taken and no
// request path ever waits on it: requests load the epoch.
func (m *Machine) serialized(op func()) {
	m.prov.Lock()
	defer m.prov.Unlock()
	op()
}

// SetActive executes one provisioning decision: grow or shrink the
// active prefix to n with a smooth transition. A decision arriving
// while a window is open finalizes that window first. flipped reports
// whether ownership changed; it is true with a *DegradedDigestError
// (the transition happened, some digests are missing) and false with
// any other error.
func (m *Machine) SetActive(n int) (flipped bool, err error) {
	m.serialized(func() { flipped, err = m.setActiveLocked(n) })
	return flipped, err
}

func (m *Machine) setActiveLocked(n int) (flipped bool, err error) {
	if m.closed {
		return false, ErrClosed
	}
	if n < 1 || n > m.nodes {
		return false, fmt.Errorf("transition: target %d out of range 1..%d", n, m.nodes)
	}
	m.finalizeLocked()
	from := m.epoch.Load().Active
	if n == from {
		return false, nil
	}
	// Boot the new servers before re-routing anything to them.
	if err := m.powerOn(from, n); err != nil {
		return false, err
	}

	// Broadcast: snapshot the digest of every server that may hold hot
	// data for re-mapped keys. A source that cannot produce one
	// degrades its keys to the database path; the flip still proceeds.
	digests := make([]*bloom.Filter, m.nodes)
	degraded := &DegradedDigestError{From: from, To: n}
	lo, hi := relocationSources(from, n)
	for i := lo; i < hi; i++ {
		d, err := m.fleet.Digest(i)
		if err != nil {
			degraded.Nodes = append(degraded.Nodes, i)
			if degraded.Err == nil {
				degraded.Err = err
			}
			continue
		}
		digests[i] = d
		m.events.Record(telemetry.Event{Kind: telemetry.EventDigestBuild, Node: i})
	}
	m.events.Record(telemetry.Event{Kind: telemetry.EventDigestBroadcast, Node: -1})

	m.update(func(e *Epoch) bool {
		e.Active, e.From, e.Digests = n, from, digests
		return true
	})
	m.gen++
	gen := m.gen
	m.cancel = m.after(m.ttl, func() { m.expire(gen) })
	m.events.Record(telemetry.Event{Kind: telemetry.EventOwnershipFlip, Node: -1, From: from, To: n})
	if m.faults != nil {
		// After the new routing is installed, so a crash rule lands
		// mid-transition, the hardest point for correctness.
		m.faults.TransitionStarted()
	}
	// The flip may have handed a hot key an owner holding a stale copy
	// from an earlier hot era; re-establish the replica invariant
	// before reads race the copies.
	m.hotSyncAfterFlip()
	if degraded.Nodes != nil {
		return true, degraded
	}
	return true, nil
}

// relocationSources returns the node range whose keys move when the
// prefix changes from -> to: the whole old prefix when growing, the
// dying suffix when shrinking.
func relocationSources(from, to int) (lo, hi int) {
	if to > from {
		return 0, from
	}
	return to, from
}

// powerOn boots nodes [from, to) in order. If one fails, the nodes this
// call booted are powered off again: left on outside the prefix they
// would burn power with no traffic, and no later decision would ever
// reach them.
func (m *Machine) powerOn(from, to int) error {
	for i := from; i < to; i++ {
		if err := m.fleet.PowerOn(i); err != nil {
			m.powerOff(from, i)
			return fmt.Errorf("transition: powering on node %d: %w", i, err)
		}
		m.events.Record(telemetry.Event{Kind: telemetry.EventPowerOn, Node: i})
	}
	return nil
}

func (m *Machine) powerOff(from, to int) {
	for i := from; i < to; i++ {
		m.fleet.PowerOff(i)
		m.events.Record(telemetry.Event{Kind: telemetry.EventPowerOff, Node: i})
	}
}

// expire is the TTL callback of window generation gen. One whose
// window a later SetActive already finalized — it may have waited on
// the provisioning lock meanwhile — must not close the window that
// replaced it.
func (m *Machine) expire(gen uint64) {
	m.serialized(func() {
		if m.gen == gen {
			m.finalizeLocked()
		}
	})
}

// finalizeLocked closes the open window, if any: after TTL every
// still-hot key has migrated, so routing forgets the old prefix first
// and only then are the dying servers powered off (Section IV's safety
// point).
func (m *Machine) finalizeLocked() {
	if !m.epoch.Load().Open() {
		return
	}
	if m.cancel != nil {
		m.cancel()
		m.cancel = nil
	}
	var from, to int
	m.update(func(e *Epoch) bool {
		from, to = e.From, e.Active
		e.From, e.Digests = e.Active, nil
		return true
	})
	m.powerOff(to, from)
	m.events.Record(telemetry.Event{Kind: telemetry.EventTTLExpiry, Node: -1, From: from, To: to})
}

// FinalizeNow closes the open window immediately, without waiting for
// the TTL.
func (m *Machine) FinalizeNow() { m.serialized(m.finalizeLocked) }

// Close finalizes any open window and refuses further decisions.
// Servers keep their current power state.
func (m *Machine) Close() {
	m.serialized(func() {
		m.closed = true
		m.finalizeLocked()
	})
}

// Geometry returns the placement shared by every ring.
func (m *Machine) Geometry() *core.Replicated { return m.epoch.Load().geo }
