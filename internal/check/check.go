// Package check is the model-based conformance harness for the Proteus
// cluster: FoundationDB-style deterministic simulation testing applied
// to the paper's guarantees.
//
// Three pieces cooperate:
//
//   - A reference model (Oracle) of the whole cluster — a single-map
//     versioned KV store plus a pure-Go mirror of placement ownership,
//     power states, transition phases, exact digest membership, and the
//     TTL window — consuming the same operation stream as the system
//     under test and predicting every observable outcome.
//
//   - A schedule explorer that generates randomized, seeded histories
//     (interleaved client gets and writes, overlapping n→n±1
//     transitions, crashes, partitions via internal/faultinject, and
//     clock skips) and drives them against either execution plane:
//     webtier.Frontend — the Algorithm 2 that ships — over the
//     discrete-event simulator (sim.Harness) or over the real TCP stack
//     (cluster.Coordinator + cacheserver.LocalNode).
//     After every step a pluggable set of invariant probes runs:
//     balance condition at every prefix, migration set within the
//     |Δn|/max(n,n') bound, digest↔cache exactness, residency mirror,
//     conformance of every read with the oracle (no stale read after an
//     ownership flip), no double migration, and power-off safety.
//
//   - A seed shrinker that, on violation, delta-debugs the history to a
//     minimal reproducing schedule and emits a replayable .check
//     artifact carrying the schedule, the violation, and the telemetry
//     event stream at the failure point.
//
// Everything in this package is deterministic by construction: the same
// seed and options produce byte-identical reports on every run and
// every machine, on both planes. That is what makes a violation a
// one-line bug report instead of a flaky CI failure.
package check

import (
	"fmt"
	"time"
)

// StepKind enumerates the schedule vocabulary.
type StepKind uint8

const (
	// StepGet is one client read of Key (Algorithm 2 end to end).
	StepGet StepKind = iota + 1
	// StepSet is one client write of Key: the backing store advances to
	// the next version and the value is written through.
	StepSet
	// StepScale is one provisioning decision: SetActive(Target).
	StepScale
	// StepCrash powers Server off outside any provisioning decision,
	// losing its data.
	StepCrash
	// StepPartition blackholes Server via the fault injector: every
	// operation against it fails until healed.
	StepPartition
	// StepHeal lifts Server's partition.
	StepHeal
	// StepAdvance skips the virtual clock forward by Skip, firing any
	// transition deadline the skip crosses.
	StepAdvance
	// StepPromote moves Key into the hot set: its replica copies are
	// synchronized and reads resolve at HotReplicas depth. A no-op
	// schedule-wise when replication is disabled or an owner is
	// unreachable (promotion is atomic or nothing).
	StepPromote
	// StepDemote removes Key from the hot set; copies linger invisibly.
	StepDemote
)

// Step is one schedule entry. Only the fields its kind names are
// meaningful.
type Step struct {
	Kind   StepKind
	Key    string
	Target int
	Server int
	Skip   time.Duration
}

// String renders the .check history line for the step.
func (s Step) String() string {
	switch s.Kind {
	case StepGet:
		return "get " + s.Key
	case StepSet:
		return "set " + s.Key
	case StepScale:
		return fmt.Sprintf("scale %d", s.Target)
	case StepCrash:
		return fmt.Sprintf("crash %d", s.Server)
	case StepPartition:
		return fmt.Sprintf("partition %d", s.Server)
	case StepHeal:
		return fmt.Sprintf("heal %d", s.Server)
	case StepAdvance:
		return fmt.Sprintf("advance %s", s.Skip)
	case StepPromote:
		return "promote " + s.Key
	case StepDemote:
		return "demote " + s.Key
	default:
		return fmt.Sprintf("step(%d)", uint8(s.Kind))
	}
}

// Source classifies where a read was served, plane-independently.
type Source uint8

const (
	// SourceNone marks non-read observations.
	SourceNone Source = iota
	// SourceHit is a hit on the key's current owner.
	SourceHit
	// SourceMigrated is an Algorithm 2 amortized migration from the old
	// owner during a transition window.
	SourceMigrated
	// SourceDB is a backing-store fetch.
	SourceDB
)

func (s Source) String() string {
	switch s {
	case SourceNone:
		return "none"
	case SourceHit:
		return "hit"
	case SourceMigrated:
		return "migrated"
	case SourceDB:
		return "db"
	default:
		return fmt.Sprintf("source(%d)", uint8(s))
	}
}

// Observation is what a plane reported for one step. For non-read
// steps only Err is meaningful.
type Observation struct {
	Value string
	Src   Source
	Found bool
	Err   string
}

// Violation is one probe failure, locating the offending step.
type Violation struct {
	Probe  string
	Step   int // 0-based index into the history
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at step %d: %s", v.Probe, v.Step, v.Detail)
}
