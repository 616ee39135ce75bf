// Package cluster is the Proteus provisioning actuator for a real
// (networked) cache fleet: it owns the fixed provisioning order and
// drives the smooth-transition protocol of Section IV (the shared
// machine in internal/transition) over real servers — broadcast
// digests, re-route, and power servers off only after the TTL window
// during which hot data migrates on demand. The paper's point that any
// provisioning *policy* can sit on top is honoured by the Supervisor
// taking any provision.Policy, separate from the actuator.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"proteus/internal/bloom"
	"proteus/internal/cacheclient"
	"proteus/internal/core"
	"proteus/internal/faultinject"
	"proteus/internal/hotkey"
	"proteus/internal/telemetry"
	"proteus/internal/transition"
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

// Coordinator executes provisioning decisions over a live fleet: it is
// the transition machine's Fleet over cacheclient pools and Nodes, plus
// the online hot-key tracker. It is safe for concurrent use; every
// routing accessor is one load of the machine's current epoch.
type Coordinator struct {
	m       *transition.Machine
	nodes   []Node
	clients []*cacheclient.Client

	trackerMu sync.Mutex
	tracker   *hotkey.Tracker

	transitions     *telemetry.Counter
	digestSnapshots *telemetry.Counter
	digestFailures  *telemetry.Counter
	powerOns        *telemetry.Counter
	powerOffs       *telemetry.Counter
	activeGauge     *telemetry.Gauge
}

// ErrClosed is returned after Close.
var ErrClosed = transition.ErrClosed

// New builds a Coordinator and powers on the initial prefix.
func New(cfg Config) (*Coordinator, error) {
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
	c := &Coordinator{nodes: cfg.Nodes}
	if cfg.HotTracker != nil && cfg.HotReplicas > max(cfg.Replicas, 1) {
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
	if cfg.Faults != nil {
		cfg.Faults.OnCrash(func(server int) {
			if server >= 0 && server < len(c.nodes) {
				_ = c.nodes[server].PowerOff()
			}
		})
	}
	c.clients = make([]*cacheclient.Client, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		c.clients[i] = newClient(n.Addr())
	}
	m, err := transition.New(transition.Config{
		Fleet:         fleet{c},
		Nodes:         len(cfg.Nodes),
		InitialActive: cfg.InitialActive,
		TTL:           cfg.TTL,
		Replicas:      cfg.Replicas,
		HotReplicas:   cfg.HotReplicas,
		Backend:       cfg.Backend,
		After:         after,
		Faults:        cfg.Faults,
		Events:        cfg.Events,
	})
	if err != nil {
		for _, cl := range c.clients {
			cl.Close()
		}
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c.m = m
	c.activeGauge.Set(float64(cfg.InitialActive))
	return c, nil
}

// fleet is the Coordinator as the machine sees it: power through the
// Nodes, everything else through the per-node protocol clients (Get,
// Set and Delete are the Coordinator's own).
type fleet struct{ *Coordinator }

func (f fleet) PowerOn(i int) error {
	if err := f.nodes[i].PowerOn(); err != nil {
		return err
	}
	f.powerOns.Inc()
	return nil
}

func (f fleet) PowerOff(i int) {
	_ = f.nodes[i].PowerOff() // best-effort, see transition.Fleet
	// The pooled connections died with the node. Dropping them here,
	// and the breaker state with them, lets a regrow dial the
	// power-cycled node fresh; left in the pool they are found dead one
	// failed operation at a time, enough of them to open the breaker
	// against a healthy node.
	f.clients[i].DropIdle()
	f.powerOffs.Inc()
}

func (f fleet) Digest(i int) (*bloom.Filter, error) {
	d, err := f.clients[i].FetchDigest()
	if err != nil {
		f.digestFailures.Inc()
		return nil, err
	}
	f.digestSnapshots.Inc()
	return d, nil
}

func (f fleet) Ping(i int) error {
	_, err := f.clients[i].Version()
	return err
}

// Get, Set, Delete, MultiGet and LoadEstimate are node i's protocol
// client by index — the data operations the web tier runs Algorithm 2
// over (webtier.CacheTier) and the machine syncs hot replicas with.
// Values are stored without expiry; Get reads a hit into buf when it
// fits (cacheclient.Client.GetInto).
func (c *Coordinator) Get(i int, key string, buf []byte) ([]byte, bool, error) {
	return c.clients[i].GetInto(key, buf)
}

func (c *Coordinator) Set(i int, key string, value []byte) error {
	return c.clients[i].Set(key, value, 0)
}

func (c *Coordinator) Delete(i int, key string) (bool, error) { return c.clients[i].Delete(key) }

func (c *Coordinator) MultiGet(i int, keys ...string) (map[string][]byte, error) {
	return c.clients[i].MultiGet(keys...)
}

func (c *Coordinator) LoadEstimate(i int) float64 { return c.clients[i].LoadEstimate() }

// Epoch returns the current routing state: one atomic load. Request
// paths load it once and route with the result, so every decision of
// one request sees the same prefix, window and hot set.
func (c *Coordinator) Epoch() *transition.Epoch { return c.m.Epoch() }

// Placement exposes the shared routing table when the backend is
// Algorithm 1, and nil for the O(1) backends (route through RouteRing
// instead).
func (c *Coordinator) Placement() *core.Placement { return c.m.Geometry().Placement() }

// Backend returns the placement geometry in use.
func (c *Coordinator) Backend() core.Backend { return c.m.Geometry().Backend() }

// Active returns the current active-prefix size.
func (c *Coordinator) Active() int { return c.Epoch().Active }

// Client returns the protocol client for node i.
func (c *Coordinator) Client(i int) *cacheclient.Client { return c.clients[i] }

// InTransition reports whether a smooth transition is in progress.
func (c *Coordinator) InTransition() bool { return c.Epoch().Open() }

// RouteRing is the per-request routing decision on one replication
// ring; see transition.Epoch.Route.
func (c *Coordinator) RouteRing(key string, ring int) (newOwner int, oldOwner int, tryOld bool) {
	return c.Epoch().Route(key, ring)
}

// WriteOwners returns the distinct servers that must store the key at
// the current active-prefix size; see transition.Epoch.Owners.
func (c *Coordinator) WriteOwners(key string) []int { return c.Epoch().Owners(key) }

// HotKeys returns the hot set, sorted.
func (c *Coordinator) HotKeys() []string { return c.Epoch().HotKeys() }

// SetActive executes one provisioning decision: grow or shrink the
// active prefix to n with a smooth transition. A
// *transition.DegradedDigestError reports a transition that did happen
// with some digests missing; any other error means nothing changed.
func (c *Coordinator) SetActive(n int) error {
	flipped, err := c.m.SetActive(n)
	if flipped {
		c.transitions.Inc()
		c.activeGauge.Set(float64(n))
	}
	return err
}

// FinalizeNow ends a pending transition immediately (tests, shutdown).
func (c *Coordinator) FinalizeNow() { c.m.FinalizeNow() }

// Promote moves a key into the hot set and reports whether it is hot
// on return (false is a veto); see transition.Machine.Promote.
func (c *Coordinator) Promote(key string) bool { return c.m.Promote(key) }

// Demote removes a key from the hot set, reporting whether it was hot.
func (c *Coordinator) Demote(key string) bool { return c.m.Demote(key) }

// Fanout writes one key to every distinct owner under e, demoting it
// if a replica missed the write; see transition.Machine.Fanout.
func (c *Coordinator) Fanout(e *transition.Epoch, key string, write func(owner int) bool) {
	c.m.Fanout(e, key, write)
}

// ObserveGet feeds one read into the online hot-key tracker (no-op
// unless Config.HotTracker enabled it) and applies any window-boundary
// promote/demote decisions. A promotion the cluster vetoes (owner
// unreachable) is simply dropped; the tracker re-decides next window.
func (c *Coordinator) ObserveGet(key string) {
	if c.tracker == nil {
		return
	}
	c.trackerMu.Lock()
	changes := c.tracker.Observe(key)
	c.trackerMu.Unlock()
	for _, ch := range changes {
		if ch.Promote {
			c.m.Promote(ch.Key)
		} else {
			c.m.Demote(ch.Key)
		}
	}
}

// Close finalizes any transition and releases all clients. Nodes are
// left in their current power state.
func (c *Coordinator) Close() {
	c.m.Close()
	for _, cl := range c.clients {
		cl.Close()
	}
}
