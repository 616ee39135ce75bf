package check

import (
	"fmt"
	"time"

	"proteus/internal/core"
)

// PlaneKind selects which execution plane(s) a run drives.
type PlaneKind int

const (
	// PlaneSim drives the discrete-event simulator harness.
	PlaneSim PlaneKind = iota
	// PlaneLive drives the real TCP stack.
	PlaneLive
	// PlaneBoth drives both in lockstep, additionally comparing their
	// observations step by step.
	PlaneBoth
)

func (k PlaneKind) String() string {
	switch k {
	case PlaneSim:
		return "sim"
	case PlaneLive:
		return "live"
	case PlaneBoth:
		return "both"
	default:
		return fmt.Sprintf("plane(%d)", int(k))
	}
}

// ParsePlane parses a -plane flag value.
func ParsePlane(s string) (PlaneKind, error) {
	switch s {
	case "sim":
		return PlaneSim, nil
	case "live":
		return PlaneLive, nil
	case "both":
		return PlaneBoth, nil
	default:
		return 0, fmt.Errorf("check: unknown plane %q (want sim, live, or both)", s)
	}
}

// Options configures a conformance run. The zero value of every field
// except Seed is filled by withDefaults.
type Options struct {
	Seed          int64
	Steps         int
	Servers       int
	InitialActive int
	Keys          int
	TTL           time.Duration
	Plane         PlaneKind
	// SeedBug arms the sim harness's UnsafeEarlyPowerOff hook (the
	// deliberate premature power-off); sim plane only.
	SeedBug bool
	// HotReplicas enables hot-key replication on the oracle and both
	// planes: promoted keys resolve at this replica depth (0 or 1
	// disables). The explorer adds promote/demote verbs and skews reads
	// toward a hot candidate set when enabled.
	HotReplicas int
	// SeedBugFanout makes the sim plane's Set write the primary only,
	// stranding stale replica copies; sim plane only.
	SeedBugFanout bool
	// NoShrink skips delta-debugging the history after a violation.
	NoShrink bool
	// Backend selects the placement geometry on the oracle and both
	// planes (empty = Algorithm 1). The geometry probes adapt: exact
	// rational balance/migration checks for Algorithm 1, deterministic
	// sampled bounds for the O(1) backends.
	Backend core.BackendKind
}

func (o Options) withDefaults() Options {
	if o.Steps <= 0 {
		o.Steps = 1000
	}
	if o.Servers <= 0 {
		o.Servers = 5
	}
	if o.InitialActive <= 0 {
		o.InitialActive = 3
	}
	if o.InitialActive > o.Servers {
		o.InitialActive = o.Servers
	}
	if o.Keys <= 0 {
		o.Keys = 48
	}
	if o.TTL <= 0 {
		o.TTL = 30 * time.Second
	}
	return o
}

func keyUniverse(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
	}
	return keys
}

// Stats aggregates one run's step and outcome counts.
type Stats struct {
	Gets, Sets, Scales, Crashes, Partitions, Heals, Advances int
	Promotes, Demotes                                        int
	Hits, Migrated, DBFetches                                int
	Flips                                                    int
}

// session is one (oracle, plane, probes) triple consuming the step
// stream.
type session struct {
	oracle *Oracle
	plane  *plane
	probes []Probe
	stats  Stats
}

func newSession(opt Options, kind PlaneKind) (*session, error) {
	oracle, err := NewOracle(opt.Backend, opt.Servers, opt.InitialActive, opt.TTL, keyUniverse(opt.Keys), opt.HotReplicas)
	if err != nil {
		return nil, err
	}
	plane, err := newPlane(kind, opt, oracle.DBValue)
	if err != nil {
		return nil, err
	}
	return &session{oracle: oracle, plane: plane, probes: defaultProbes()}, nil
}

// apply runs one step through the oracle and the plane, then every
// probe. It returns the step's observation and the first violation.
func (s *session) apply(i int, st Step) (Observation, *Violation) {
	prevActive := s.oracle.Active()
	var obs, exp Observation
	switch st.Kind {
	case StepGet:
		s.stats.Gets++
		v, src, found := s.oracle.ApplyGet(st.Key)
		exp = Observation{Value: v, Src: src, Found: found}
		obs = s.plane.Get(st.Key)
		switch obs.Src {
		case SourceHit:
			s.stats.Hits++
		case SourceMigrated:
			s.stats.Migrated++
		case SourceDB:
			s.stats.DBFetches++
		}
	case StepSet:
		s.stats.Sets++
		val := s.oracle.ApplySet(st.Key)
		obs = s.plane.Set(st.Key, val)
	case StepScale:
		s.stats.Scales++
		if _, err := s.oracle.ApplyScale(st.Target); err != nil {
			return obs, &Violation{Probe: "schedule", Step: i, Detail: err.Error()}
		}
		obs = s.plane.Scale(st.Target)
	case StepCrash:
		s.stats.Crashes++
		s.oracle.ApplyCrash(st.Server)
		s.plane.nodes.Crash(st.Server)
	case StepPartition:
		s.stats.Partitions++
		s.oracle.ApplyPartition(st.Server)
		s.plane.inj.Partition(st.Server)
	case StepHeal:
		s.stats.Heals++
		s.oracle.ApplyHeal(st.Server)
		s.plane.inj.Heal(st.Server)
	case StepAdvance:
		s.stats.Advances++
		s.oracle.ApplyAdvance(st.Skip)
		s.plane.advance(st.Skip)
	case StepPromote:
		s.stats.Promotes++
		exp = Observation{Found: s.oracle.ApplyPromote(st.Key)}
		obs = Observation{Found: s.plane.ctl.Promote(st.Key)}
		if obs.Found != exp.Found {
			return obs, &Violation{Probe: "conformance", Step: i, Detail: fmt.Sprintf(
				"%s: plane promoted=%v, oracle expects %v", st, obs.Found, exp.Found)}
		}
	case StepDemote:
		s.stats.Demotes++
		exp = Observation{Found: s.oracle.ApplyDemote(st.Key)}
		obs = Observation{Found: s.plane.ctl.Demote(st.Key)}
		if obs.Found != exp.Found {
			return obs, &Violation{Probe: "conformance", Step: i, Detail: fmt.Sprintf(
				"%s: plane demoted=%v, oracle expects %v", st, obs.Found, exp.Found)}
		}
	default:
		return obs, &Violation{Probe: "schedule", Step: i, Detail: fmt.Sprintf("unknown step kind %d", st.Kind)}
	}
	pc := &ProbeContext{
		Oracle:     s.oracle,
		State:      s.plane.State(),
		StepIndex:  i,
		Step:       st,
		Obs:        obs,
		Expected:   exp,
		PrevActive: prevActive,
	}
	for _, p := range s.probes {
		if v := p.Check(pc); v != nil {
			return obs, v
		}
	}
	return obs, nil
}

func (s *session) close() {
	s.stats.Flips = s.oracle.Flips()
	s.plane.close()
}

// sessionKinds expands a PlaneKind into the sessions a run needs.
func sessionKinds(k PlaneKind) []PlaneKind {
	if k == PlaneBoth {
		return []PlaneKind{PlaneSim, PlaneLive}
	}
	return []PlaneKind{k}
}

// runHistory replays a fixed step list against the configured plane(s),
// returning the first violation, the name of the violating plane, the
// event-log JSON of that plane at the failure point, and the primary
// session's stats. It is the engine under both the explorer (which
// generates steps as it goes) and the shrinker/replayer (fixed lists).
func runHistory(opt Options, steps []Step) (*Violation, string, []byte, Stats, error) {
	opt = opt.withDefaults()
	kinds := sessionKinds(opt.Plane)
	sessions := make([]*session, 0, len(kinds))
	defer func() {
		for _, s := range sessions {
			s.close()
		}
	}()
	for _, k := range kinds {
		s, err := newSession(opt, k)
		if err != nil {
			return nil, "", nil, Stats{}, err
		}
		sessions = append(sessions, s)
	}
	for i, st := range steps {
		v, plane, events := applyAll(sessions, i, st)
		if v != nil {
			sessions[0].stats.Flips = sessions[0].oracle.Flips()
			return v, plane, events, sessions[0].stats, nil
		}
	}
	for _, s := range sessions {
		s.stats.Flips = s.oracle.Flips()
	}
	return nil, "", nil, sessions[0].stats, nil
}

// applyAll runs one step through every session and, in lockstep mode,
// cross-checks the planes' observations against each other.
func applyAll(sessions []*session, i int, st Step) (*Violation, string, []byte) {
	obs := make([]Observation, len(sessions))
	for j, s := range sessions {
		o, v := s.apply(i, st)
		if v != nil {
			return v, s.plane.name, eventsJSON(s.plane)
		}
		obs[j] = o
	}
	if len(sessions) == 2 && st.Kind == StepGet {
		a, b := obs[0], obs[1]
		if a.Value != b.Value || a.Src != b.Src || a.Found != b.Found {
			v := &Violation{Probe: "lockstep", Step: i, Detail: fmt.Sprintf(
				"%s: planes disagree: %s says (%q, %s, found=%v), %s says (%q, %s, found=%v)",
				st, sessions[0].plane.name, a.Value, a.Src, a.Found,
				sessions[1].plane.name, b.Value, b.Src, b.Found)}
			return v, "both", eventsJSON(sessions[0].plane)
		}
	}
	return nil, "", nil
}
