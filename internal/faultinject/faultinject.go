// Package faultinject is a deterministic, rule-based fault injector for
// the Proteus cache fabric. The same Injector drives faults in both
// execution planes: the live TCP path (wrapping cacheclient dials and
// cacheserver connections, see conn.go) and the discrete-event
// simulator (per-operation decisions consulted in virtual time).
//
// Determinism is the design center. A decision never consults the wall
// clock or a shared RNG stream; it is a pure function of (seed, rule
// index, per-rule match counter), so the same seed and the same
// per-rule event sequence always produce the same fault schedule. That
// is what lets the chaos tests assert "same seed, same schedule" and
// run identically under -race, -shuffle and the DES.
package faultinject

import (
	"fmt"
	"sync"
	"time"

	"proteus/internal/telemetry"
)

// Op classifies the operation a fault decision applies to.
type Op uint8

// Operations. OpAny in a rule matches every operation except
// OpTransition and OpTick, which must be matched explicitly (a
// blanket error rule should not silently eat control-plane events).
const (
	OpAny Op = iota
	// OpDial is a client connection attempt.
	OpDial
	// OpRead is one Read on an established connection.
	OpRead
	// OpWrite is one Write on an established connection.
	OpWrite
	// OpGet is a DES-plane cache lookup on a server.
	OpGet
	// OpSet is a DES-plane cache store on a server.
	OpSet
	// OpTransition is the start of a provisioning transition
	// (fired via TransitionStarted, not Decide).
	OpTransition
	// OpTick is one control-loop slot decision (cluster.Supervisor).
	OpTick
)

func (o Op) String() string {
	switch o {
	case OpAny:
		return "any"
	case OpDial:
		return "dial"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpGet:
		return "get"
	case OpSet:
		return "set"
	case OpTransition:
		return "transition"
	case OpTick:
		return "tick"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Kind is the fault to apply when a rule fires.
type Kind uint8

const (
	// KindNone is the zero Decision: no fault.
	KindNone Kind = iota
	// KindError fails the operation with ErrInjected.
	KindError
	// KindDrop fails the operation and closes the underlying
	// connection (a mid-stream reset).
	KindDrop
	// KindDelay stalls the operation for Rule.Delay, then proceeds.
	KindDelay
	// KindSlowRead stalls like KindDelay and additionally dribbles
	// reads one byte at a time (a pathologically slow peer).
	KindSlowRead
	// KindCrash powers a server off via the OnCrash hooks.
	KindCrash
	// KindPartition blackholes a server: every subsequent network
	// operation against it fails until Heal.
	KindPartition
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindError:
		return "error"
	case KindDrop:
		return "drop"
	case KindDelay:
		return "delay"
	case KindSlowRead:
		return "slow-read"
	case KindCrash:
		return "crash"
	case KindPartition:
		return "partition"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AnyServer in Rule.Server matches every server.
const AnyServer = -1

// Rule describes one fault schedule. Exactly one of P, Every, At
// selects when the rule fires among its matching events (all counted
// after skipping the first After):
//
//   - P: fire pseudo-randomly with probability P per event, derived
//     deterministically from the injector seed and the event index.
//   - Every: fire on every Every-th event.
//   - At: fire exactly on the At-th event (1-based).
//
// Limit bounds total firings (0 = unlimited). Delay parametrises
// KindDelay/KindSlowRead.
type Rule struct {
	Server int // server index, or AnyServer
	Op     Op  // operation to match; OpAny matches data-plane ops
	Kind   Kind

	P     float64
	Every int
	At    int
	After int
	Limit int

	Delay time.Duration
}

// Decision is the outcome of one Decide call.
type Decision struct {
	Kind  Kind
	Delay time.Duration
}

// Event is one fired fault, kept for test assertions and debugging.
type Event struct {
	Seq    int // global firing order
	Server int
	Op     Op
	Kind   Kind
	Match  int // the per-rule match index that fired
}

func (e Event) String() string {
	return fmt.Sprintf("#%d server=%d %s->%s (match %d)", e.Seq, e.Server, e.Op, e.Kind, e.Match)
}

// Injector evaluates rules. It is safe for concurrent use; decisions
// for one rule are serialized, so the per-rule schedule is a
// deterministic function of the per-rule event order.
type Injector struct {
	seed int64

	mu          sync.Mutex
	rules       []*ruleState
	partitioned map[int]bool
	crashFns    []func(server int)
	transitions int
	events      []Event
	fired       int
	injected    *telemetry.CounterVec
}

type ruleState struct {
	Rule
	idx     int
	matches int
	firings int
}

// New builds an injector with the given seed and rules. The zero-rule
// injector never fires (useful as an always-healthy default).
func New(seed int64, rules ...Rule) *Injector {
	in := &Injector{seed: seed, partitioned: make(map[int]bool)}
	for i, r := range rules {
		in.rules = append(in.rules, &ruleState{Rule: r, idx: i})
	}
	return in
}

// Instrument registers the injected-fault counter
// (proteus_faults_injected_total{kind}) on reg: every rule firing
// increments the series for its fault kind. Call before serving
// traffic; a nil registry leaves the injector silent but counting
// internally as before.
func (in *Injector) Instrument(reg *telemetry.Registry) {
	vec := reg.Counter("proteus_faults_injected_total",
		"injected faults fired, by fault kind", "kind")
	in.mu.Lock()
	in.injected = vec
	in.mu.Unlock()
}

// recordLocked appends one fired-fault event and bumps its counter;
// the caller holds in.mu.
func (in *Injector) recordLocked(ev Event) {
	in.events = append(in.events, ev)
	if in.injected != nil {
		in.injected.With(ev.Kind.String()).Inc()
	}
}

// matches reports whether the rule covers (server, op).
func (rs *ruleState) covers(server int, op Op) bool {
	if rs.Server != AnyServer && rs.Server != server {
		return false
	}
	switch rs.Op {
	case OpAny:
		return op != OpTransition && op != OpTick
	default:
		return rs.Op == op
	}
}

// fires decides whether the rule's m-th match (1-based, post-After)
// fires, using only the seed and counters.
func (rs *ruleState) fires(seed int64, m int) bool {
	if rs.Limit > 0 && rs.firings >= rs.Limit {
		return false
	}
	switch {
	case rs.At > 0:
		return m == rs.At
	case rs.Every > 0:
		return m%rs.Every == 0
	case rs.P > 0:
		return chance(seed, rs.idx, m) < rs.P
	default:
		return false
	}
}

// Decide evaluates the rules for one operation against one server and
// returns the first firing rule's fault (or the zero Decision). Every
// matching rule's counter advances whether or not an earlier rule
// already fired, so rule schedules are independent of each other.
func (in *Injector) Decide(server int, op Op) Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.partitioned[server] && (op == OpDial || op == OpRead || op == OpWrite || op == OpGet || op == OpSet) {
		return Decision{Kind: KindError}
	}
	var out Decision
	for _, rs := range in.rules {
		if !rs.covers(server, op) {
			continue
		}
		rs.matches++
		m := rs.matches - rs.After
		if m < 1 {
			continue
		}
		if !rs.fires(in.seed, m) {
			continue
		}
		rs.firings++
		in.fired++
		in.recordLocked(Event{Seq: in.fired, Server: server, Op: op, Kind: rs.Kind, Match: m})
		if out.Kind == KindNone {
			out = Decision{Kind: rs.Kind, Delay: rs.Delay}
			if rs.Kind == KindPartition {
				in.partitioned[server] = true
				out = Decision{Kind: KindError}
			}
		}
	}
	return out
}

// Partition blackholes a server immediately (outside any rule).
func (in *Injector) Partition(server int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.partitioned[server] = true
}

// Heal lifts a partition.
func (in *Injector) Heal(server int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.partitioned, server)
}

// Partitioned reports whether a server is blackholed.
func (in *Injector) Partitioned(server int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.partitioned[server]
}

// OnCrash registers a hook invoked (outside the injector lock) when a
// KindCrash rule fires. Both execution planes register one: the live
// cluster powers the node off, the simulator flushes its store.
func (in *Injector) OnCrash(fn func(server int)) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.crashFns = append(in.crashFns, fn)
}

// TransitionStarted advances the transition counter and fires any
// OpTransition rules scheduled for it: KindCrash invokes the OnCrash
// hooks, KindPartition blackholes the rule's server. Called by the
// shared transition machine at every ownership flip, so one fault
// schedule drives both planes.
func (in *Injector) TransitionStarted() {
	in.mu.Lock()
	in.transitions++
	var crashed []int
	for _, rs := range in.rules {
		if rs.Op != OpTransition {
			continue
		}
		rs.matches++
		m := rs.matches - rs.After
		if m < 1 || !rs.fires(in.seed, m) {
			continue
		}
		rs.firings++
		in.fired++
		in.recordLocked(Event{Seq: in.fired, Server: rs.Server, Op: OpTransition, Kind: rs.Kind, Match: m})
		switch rs.Kind {
		case KindCrash:
			crashed = append(crashed, rs.Server)
		case KindPartition:
			in.partitioned[rs.Server] = true
		}
	}
	fns := append([]func(int){}, in.crashFns...)
	in.mu.Unlock()
	for _, s := range crashed {
		for _, fn := range fns {
			fn(s)
		}
	}
}

// Transitions returns how many transitions have been observed.
func (in *Injector) Transitions() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.transitions
}

// Events returns a copy of the fired-fault log.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.events...)
}

// chance maps (seed, rule, event) to a uniform [0,1) value with a
// splitmix64-style finalizer — no shared RNG state, so concurrent
// Decide calls cannot perturb each other's schedules.
func chance(seed int64, rule, event int) float64 {
	x := uint64(seed)
	x ^= uint64(rule+1) * 0x9e3779b97f4a7c15
	x ^= uint64(event+1) * 0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
