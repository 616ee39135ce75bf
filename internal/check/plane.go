package check

import (
	"errors"
	"time"

	"proteus/internal/bloom"
	"proteus/internal/faultinject"
	"proteus/internal/sim"
	"proteus/internal/telemetry"
	"proteus/internal/transition"
)

// Plane is one execution of the cluster semantics the checker can
// drive: the discrete-event simulator or the live TCP stack. Both
// consume the same step vocabulary; the probes compare each against the
// oracle and (in lockstep mode) against each other.
type Plane interface {
	// Name is "sim" or "live" in reports.
	Name() string
	// Get runs Algorithm 2 for one key.
	Get(key string) Observation
	// Set writes value through to the current owner. The backing store
	// has already advanced (the oracle owns it).
	Set(key, value string) Observation
	// Scale executes SetActive(n).
	Scale(n int) Observation
	// Promote moves key into the hot set (Found reports whether it is
	// hot on return; promotion is atomic or nothing).
	Promote(key string) Observation
	// Demote removes key from the hot set (Found reports whether it
	// was hot).
	Demote(key string) Observation
	// Crash powers a server off outside any provisioning decision.
	Crash(server int)
	// Partition blackholes a server in this plane's fault injector.
	Partition(server int)
	// Heal lifts the partition.
	Heal(server int)
	// Advance skips the plane's virtual clock, firing any transition
	// deadline it crosses.
	Advance(d time.Duration)
	// State snapshots the observable cluster state for the probes.
	State() PlaneState
	// Events returns the plane's telemetry event log.
	Events() *telemetry.EventLog
	// Close releases the plane's resources.
	Close()
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

// simPlane adapts sim.Harness to the Plane interface.
type simPlane struct {
	h   *sim.Harness
	inj *faultinject.Injector
	log *telemetry.EventLog
}

func newSimPlane(opt Options, db func(key string) (string, bool)) (*simPlane, error) {
	inj := faultinject.New(opt.Seed)
	p := &simPlane{inj: inj}
	p.log = telemetry.NewEventLog(telemetry.EventLogConfig{Clock: func() time.Duration {
		if p.h == nil {
			return 0
		}
		return p.h.Now()
	}})
	h, err := sim.NewHarness(sim.HarnessConfig{
		Servers:       opt.Servers,
		InitialActive: opt.InitialActive,
		TTL:           opt.TTL,
		Backend:       opt.Backend,
		DigestParams:  digestParams(),
		DB: func(key string) ([]byte, bool) {
			v, ok := db(key)
			if !ok {
				return nil, false
			}
			return []byte(v), true
		},
		Faults:              inj,
		Events:              p.log,
		UnsafeEarlyPowerOff: opt.SeedBug,
		HotReplicas:         opt.HotReplicas,
		UnsafeSkipFanout:    opt.SeedBugFanout,
	})
	if err != nil {
		return nil, err
	}
	p.h = h
	return p, nil
}

func (p *simPlane) Name() string { return "sim" }

func (p *simPlane) Get(key string) Observation {
	v, src, ok := p.h.Get(key)
	obs := Observation{Value: string(v), Found: ok}
	switch src {
	case sim.SourceHit:
		obs.Src = SourceHit
	case sim.SourceMigrated:
		obs.Src = SourceMigrated
	default:
		obs.Src = SourceDB
	}
	return obs
}

func (p *simPlane) Set(key, value string) Observation {
	p.h.Set(key, []byte(value))
	return Observation{}
}

func (p *simPlane) Scale(n int) Observation { return scaleObservation(p.h.SetActive(n)) }

func (p *simPlane) Promote(key string) Observation {
	return Observation{Found: p.h.Promote(key)}
}

func (p *simPlane) Demote(key string) Observation {
	return Observation{Found: p.h.Demote(key)}
}

func (p *simPlane) Crash(server int)     { p.h.Crash(server) }
func (p *simPlane) Partition(server int) { p.inj.Partition(server) }
func (p *simPlane) Heal(server int)      { p.inj.Heal(server) }
func (p *simPlane) Advance(d time.Duration) {
	p.h.AdvanceClock(d)
}

func (p *simPlane) State() PlaneState {
	st := PlaneState{Active: p.h.Active(), Transition: p.h.InTransition()}
	for i := 0; i < p.h.Servers(); i++ {
		ns := NodeState{On: p.h.NodeOn(i)}
		if ns.On {
			ns.Keys = p.h.ResidentKeys(i)
		}
		st.Nodes = append(st.Nodes, ns)
	}
	st.Digest = func(node int, key string) bool {
		if !p.h.NodeOn(node) {
			return false
		}
		return p.h.DigestContains(node, key)
	}
	st.Value = func(node int, key string) (string, bool) {
		if !p.h.NodeOn(node) {
			return "", false
		}
		v, ok := p.h.NodeValue(node, key)
		return string(v), ok
	}
	return st
}

func (p *simPlane) Events() *telemetry.EventLog { return p.log }
func (p *simPlane) Close()                      {}
