package check

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"proteus/internal/bloom"
	"proteus/internal/faultinject"
	"proteus/internal/livestack/livecluster"
	"proteus/internal/sim"
	"proteus/internal/telemetry"
	"proteus/internal/transition"
	"proteus/internal/webtier"
)

// plane is one execution of the cluster semantics the checker can
// drive: the discrete-event simulator or the live TCP stack. Both run
// the same webtier.Frontend — the Algorithm 2 that ships — and consume
// the same step vocabulary; they differ only in how the cluster under
// the front end is built (newPlane) and how its nodes are inspected
// (nodes). The probes compare each against the oracle and (in lockstep
// mode) against each other.
type plane struct {
	name  string // "sim" or "live" in reports
	front *webtier.Frontend
	tier  webtier.CacheTier
	ctl   control
	nodes nodes
	inj   *faultinject.Injector
	log   *telemetry.EventLog
	// advance skips the plane's virtual clock, firing any transition
	// deadline it crosses.
	advance func(time.Duration)
	close   func()
	// primaryOnlyWrites is the seeded fan-out bug (sim plane only): Set
	// writes the primary owner and nothing else, leaving a hot key's
	// replicas holding stale copies — what the write-fanout probe exists
	// to catch.
	primaryOnlyWrites bool
}

// control is the provisioning and hot-set surface of a cluster;
// *sim.Harness and *cluster.Coordinator have it in one shape.
type control interface {
	SetActive(n int) error
	Promote(key string) bool
	Demote(key string) bool
	Active() int
	InTransition() bool
}

// nodes is how a plane's servers are inspected and crashed, outside any
// routing: *sim.Harness reads its in-memory nodes, liveNodes the
// in-process cache servers.
type nodes interface {
	Servers() int
	NodeOn(i int) bool
	// ResidentKeys returns server i's cached keys, sorted; nil when off.
	ResidentKeys(i int) []string
	// DigestContains probes server i's live counting filter.
	DigestContains(i int, key string) bool
	// NodeValue reads server i's stored value for key directly.
	NodeValue(i int, key string) ([]byte, bool)
	// Crash powers server i off outside any provisioning decision.
	Crash(i int)
}

// NodeState is one server's observable state.
type NodeState struct {
	On   bool
	Keys []string // sorted resident keys; nil when off
}

// PlaneState is the probe-visible cluster snapshot.
type PlaneState struct {
	Active     int
	Transition bool
	Nodes      []NodeState
	// Digest probes server node's live counting filter; false for a
	// powered-off server.
	Digest func(node int, key string) bool
	// Value reads server node's stored value for key directly (no
	// routing, no migration); false for a powered-off server or a
	// non-resident key. The replica probes compare values, not just
	// residency, because a stale copy has the right key and the wrong
	// bytes.
	Value func(node int, key string) (string, bool)
}

// scaleObservation renders a plane's SetActive result. A relocation
// source that cannot produce a digest degrades its keys to the database
// path while the transition proceeds; the oracle models the
// degradation, so that error is expected whenever a source is
// unreachable — not a violation.
func scaleObservation(err error) Observation {
	var degraded *transition.DegradedDigestError
	if err == nil || errors.As(err, &degraded) {
		return Observation{}
	}
	return Observation{Err: err.Error()}
}

// digestParams returns the counting-filter sizing conformance runs use
// on both planes: identical parameters and an identical insert stream
// give bit-identical filters, so even false positives agree across
// planes.
func digestParams() bloom.Params {
	return bloom.Params{Counters: 1 << 14, CounterBits: 4, Hashes: 4}
}

// errUnknownKey is the backing store's answer for a key the oracle's
// versioned map does not hold.
var errUnknownKey = errors.New("check: backing store has no such key")

// backingFunc adapts the oracle's versioned map to webtier.Backing.
type backingFunc func(key string) (string, bool)

func (f backingFunc) Get(key string) ([]byte, error) {
	v, ok := f(key)
	if !ok {
		return nil, fmt.Errorf("%w: %q", errUnknownKey, key)
	}
	return []byte(v), nil
}

// newPlane builds the cluster of one kind — sim.Harness, or
// cluster.Coordinator over TCP cacheserver.LocalNodes — and a
// webtier.Frontend over it, reading the oracle's backing store.
func newPlane(kind PlaneKind, opt Options, db func(key string) (string, bool)) (*plane, error) {
	p := &plane{name: kind.String(), inj: faultinject.New(opt.Seed), close: func() {}}
	switch kind {
	case PlaneSim:
		var h *sim.Harness
		p.log = telemetry.NewEventLog(telemetry.EventLogConfig{Clock: func() time.Duration {
			if h == nil { // the machine powers the initial prefix on while NewHarness runs
				return 0
			}
			return h.Now()
		}})
		h, err := sim.NewHarness(sim.HarnessConfig{
			Servers:             opt.Servers,
			InitialActive:       opt.InitialActive,
			TTL:                 opt.TTL,
			Backend:             opt.Backend,
			DigestParams:        digestParams(),
			Faults:              p.inj,
			Events:              p.log,
			UnsafeEarlyPowerOff: opt.SeedBug,
			HotReplicas:         opt.HotReplicas,
		})
		if err != nil {
			return nil, err
		}
		p.tier, p.ctl, p.nodes, p.advance = h.Tier(), h, h, h.AdvanceClock
		p.primaryOnlyWrites = opt.SeedBugFanout
	case PlaneLive:
		if opt.SeedBug || opt.SeedBugFanout {
			return nil, fmt.Errorf("check: the seeded-bug hooks are sim-plane only")
		}
		eng := sim.NewEngine() // the coordinator's TTL timer; moves only on Advance
		p.log = telemetry.NewEventLog(telemetry.EventLogConfig{Clock: eng.Now})
		// check reaches the live cluster through livecluster alone, the
		// one live-plane import its determinism contract allows, so the
		// coordinator's settings are set as fields rather than written as
		// a cluster.Config literal.
		cfg := livecluster.Config{Nodes: opt.Servers, TTL: opt.TTL, Digest: digestParams(), Seed: opt.Seed}
		cfg.Cluster.InitialActive = opt.InitialActive
		cfg.Cluster.HotReplicas = opt.HotReplicas
		cfg.Cluster.Backend = opt.Backend
		cfg.Cluster.Faults = p.inj
		cfg.Cluster.After = eng.Timer
		cfg.Cluster.Events = p.log
		//lint:allow transdeterminism the live plane half of the conformance harness drives real network components on purpose; determinism is enforced on the model side
		env, err := livecluster.New(cfg)
		if err != nil {
			return nil, err
		}
		p.tier, p.ctl, p.nodes, p.advance, p.close = env.Coord, env.Coord, liveNodes{env}, eng.Advance, env.Close
	default:
		return nil, fmt.Errorf("check: a plane is sim or live, got %s", kind)
	}
	front, err := webtier.New(webtier.Config{Coordinator: p.tier, DB: backingFunc(db), Events: p.log})
	if err != nil {
		p.close()
		return nil, err
	}
	p.front = front
	return p, nil
}

// Get runs Algorithm 2 for one key. A key the backing store does not
// know is Found=false from the database, on either plane; any other
// failure is a client-visible error.
func (p *plane) Get(key string) Observation {
	data, src, err := p.front.Fetch(key)
	if errors.Is(err, errUnknownKey) {
		return Observation{Src: SourceDB}
	}
	if err != nil {
		return Observation{Err: err.Error()}
	}
	obs := Observation{Value: string(data), Found: true}
	switch src {
	case webtier.SourceNewCache:
		obs.Src = SourceHit
	case webtier.SourceOldCache:
		obs.Src = SourceMigrated
	default:
		obs.Src = SourceDB
	}
	return obs
}

// Set writes value through to every current owner. The backing store
// has already advanced (the oracle owns it).
func (p *plane) Set(key, value string) Observation {
	if p.primaryOnlyWrites {
		_ = p.tier.Set(p.tier.Epoch().Owner(key, 0), key, []byte(value))
		return Observation{}
	}
	if err := p.front.Update(key, []byte(value)); err != nil {
		return Observation{Err: err.Error()}
	}
	return Observation{}
}

// Scale executes SetActive(n).
func (p *plane) Scale(n int) Observation { return scaleObservation(p.ctl.SetActive(n)) }

// State snapshots the observable cluster state for the probes.
func (p *plane) State() PlaneState {
	st := PlaneState{Active: p.ctl.Active(), Transition: p.ctl.InTransition()}
	for i := 0; i < p.nodes.Servers(); i++ {
		st.Nodes = append(st.Nodes, NodeState{On: p.nodes.NodeOn(i), Keys: p.nodes.ResidentKeys(i)})
	}
	st.Digest = p.nodes.DigestContains
	st.Value = func(node int, key string) (string, bool) {
		v, ok := p.nodes.NodeValue(node, key)
		return string(v), ok
	}
	return st
}

// liveNodes inspects the live plane's in-process cache servers. A
// powered-off node has no server: no keys, an empty digest, no values.
type liveNodes struct{ env *livecluster.Cluster }

func (l liveNodes) Servers() int      { return len(l.env.Locals) }
func (l liveNodes) NodeOn(i int) bool { return l.env.Locals[i].Running() }

func (l liveNodes) ResidentKeys(i int) []string {
	srv := l.env.Locals[i].Server()
	if srv == nil {
		return nil
	}
	keys := srv.Cache().Keys() // LRU order; probes want a canonical order
	sort.Strings(keys)
	return keys
}

func (l liveNodes) DigestContains(i int, key string) bool {
	srv := l.env.Locals[i].Server()
	return srv != nil && srv.DigestContains(key)
}

func (l liveNodes) NodeValue(i int, key string) ([]byte, bool) {
	srv := l.env.Locals[i].Server()
	if srv == nil {
		return nil, false
	}
	return srv.Cache().Get(key)
}

func (l liveNodes) Crash(i int) {
	if i >= 0 && i < len(l.env.Locals) {
		_ = l.env.Locals[i].PowerOff()
	}
}
