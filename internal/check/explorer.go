package check

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"proteus/internal/core"
)

// Report is the outcome of one conformance run. With one seed and one
// Options value the report is byte-identical across runs and machines:
// everything in it derives from the deterministic schedule and the
// virtual clock.
type Report struct {
	Opt       Options
	History   []Step // generated schedule, truncated at the violation
	Violation *Violation
	Plane     string // violating plane name; "" when clean
	Stats     Stats  // stats of the primary session over History
	// Min is the shrunk reproducing schedule (nil when the run was
	// clean or shrinking was disabled).
	Min []Step
	// MinViolation re-states the violation as the minimal schedule
	// triggers it (probe and detail can legitimately differ from the
	// original once context steps are gone).
	MinViolation *Violation
	// Events is the violating plane's telemetry event stream at the
	// failure point of the minimal (or, without shrinking, original)
	// schedule, as WriteJSON renders it.
	Events []byte
}

// Explore generates a seeded random schedule step by step and drives it
// against the configured plane(s), stopping at the first probe
// violation and (by default) shrinking the history to a minimal
// reproducing schedule.
func Explore(opt Options) (*Report, error) {
	opt = opt.withDefaults()
	rep := &Report{Opt: opt}
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
			return nil, err
		}
		sessions = append(sessions, s)
	}

	gen := newStepGen(opt)
	for i := 0; i < opt.Steps; i++ {
		st := gen.next(sessions[0].oracle.Active())
		rep.History = append(rep.History, st)
		v, plane, events := applyAll(sessions, i, st)
		if v != nil {
			rep.Violation, rep.Plane, rep.Events = v, plane, events
			break
		}
	}
	rep.Stats = sessions[0].stats
	rep.Stats.Flips = sessions[0].oracle.Flips()

	if rep.Violation != nil && !opt.NoShrink {
		min, minV, events, err := Shrink(opt, rep.History)
		if err != nil {
			return nil, err
		}
		if minV != nil {
			rep.Min, rep.MinViolation = min, minV
			if events != nil {
				rep.Events = events
			}
		}
	}
	return rep, nil
}

// Replay runs a fixed schedule (from a .check artifact) against the
// configured plane(s) and reports like Explore, without generating or
// shrinking anything.
func Replay(opt Options, steps []Step) (*Report, error) {
	opt = opt.withDefaults()
	rep := &Report{Opt: opt, History: steps}
	v, plane, events, stats, err := runHistory(opt, steps)
	if err != nil {
		return nil, err
	}
	if v != nil {
		rep.History = steps[:v.Step+1]
	}
	rep.Violation, rep.Plane, rep.Events, rep.Stats = v, plane, events, stats
	return rep, nil
}

// stepGen draws schedule steps from a seeded stream. It tracks its own
// mirror of the partitioned set so heals target real partitions, and
// takes the current active-prefix size from the caller so scale steps
// are always ±1 moves.
type stepGen struct {
	rng         *rand.Rand
	opt         Options
	keys        []string
	partitioned map[int]bool
	skips       [4]time.Duration
}

func newStepGen(opt Options) *stepGen {
	return &stepGen{
		rng:         rand.New(rand.NewSource(opt.Seed)),
		opt:         opt,
		keys:        keyUniverse(opt.Keys),
		partitioned: make(map[int]bool),
		skips: [4]time.Duration{
			opt.TTL / 4,
			opt.TTL / 2,
			opt.TTL,
			2 * opt.TTL,
		},
	}
}

func (g *stepGen) key() string { return g.keys[g.rng.Intn(len(g.keys))] }

// hotKey draws from the hot candidate set: the first few keys of the
// universe, so promotes, demotes, skewed reads, and writes keep
// colliding on the same keys instead of spreading the hot set thin.
func (g *stepGen) hotKey() string {
	n := len(g.keys)
	if n > 8 {
		n = 8
	}
	return g.keys[g.rng.Intn(n)]
}

func (g *stepGen) scale(active int) Step {
	target := active + 1
	if g.rng.Intn(2) == 0 {
		target = active - 1
	}
	if target < 1 {
		target = active + 1
	}
	if target > g.opt.Servers {
		target = active - 1
	}
	if target < 1 || target == active {
		// Single-server universe: scaling is a no-op; read instead.
		return Step{Kind: StepGet, Key: g.key()}
	}
	return Step{Kind: StepScale, Target: target}
}

func (g *stepGen) partition() Step {
	s := g.rng.Intn(g.opt.Servers)
	g.partitioned[s] = true
	return Step{Kind: StepPartition, Server: s}
}

func (g *stepGen) heal() Step {
	if len(g.partitioned) == 0 {
		return Step{Kind: StepGet, Key: g.key()}
	}
	cut := make([]int, 0, len(g.partitioned))
	for s := range g.partitioned {
		cut = append(cut, s)
	}
	sort.Ints(cut)
	s := cut[g.rng.Intn(len(cut))]
	delete(g.partitioned, s)
	return Step{Kind: StepHeal, Server: s}
}

func (g *stepGen) next(active int) Step {
	if g.opt.HotReplicas > 1 {
		return g.nextReplicated(active)
	}
	switch p := g.rng.Intn(100); {
	case p < 55:
		return Step{Kind: StepGet, Key: g.key()}
	case p < 70:
		return Step{Kind: StepSet, Key: g.key()}
	case p < 78:
		return g.scale(active)
	case p < 86:
		return Step{Kind: StepAdvance, Skip: g.skips[g.rng.Intn(len(g.skips))]}
	case p < 90:
		return Step{Kind: StepCrash, Server: g.rng.Intn(g.opt.Servers)}
	case p < 95:
		return g.partition()
	default:
		return g.heal()
	}
}

// nextReplicated is the replication-aware distribution: it adds the
// promote/demote verbs and skews reads and writes toward the hot
// candidate set, so hot keys see the read/write/scale interleavings
// the replica probes exist to stress. It is a separate branch (not a
// re-weighting of next) so schedules for HotReplicas <= 1 stay
// byte-identical to earlier releases for any given seed.
func (g *stepGen) nextReplicated(active int) Step {
	switch p := g.rng.Intn(100); {
	case p < 40:
		if g.rng.Intn(2) == 0 {
			return Step{Kind: StepGet, Key: g.hotKey()}
		}
		return Step{Kind: StepGet, Key: g.key()}
	case p < 52:
		if g.rng.Intn(2) == 0 {
			return Step{Kind: StepSet, Key: g.hotKey()}
		}
		return Step{Kind: StepSet, Key: g.key()}
	case p < 60:
		return Step{Kind: StepPromote, Key: g.hotKey()}
	case p < 64:
		return Step{Kind: StepDemote, Key: g.hotKey()}
	case p < 72:
		return g.scale(active)
	case p < 80:
		return Step{Kind: StepAdvance, Skip: g.skips[g.rng.Intn(len(g.skips))]}
	case p < 85:
		return Step{Kind: StepCrash, Server: g.rng.Intn(g.opt.Servers)}
	case p < 92:
		return g.partition()
	default:
		return g.heal()
	}
}

// eventsJSON renders a plane's event log deterministically.
func eventsJSON(p *plane) []byte {
	var buf bytes.Buffer
	if err := p.log.WriteJSON(&buf); err != nil {
		return nil
	}
	return buf.Bytes()
}

// Write renders the report as deterministic text: the format the CLI
// prints and the byte-identity acceptance check compares.
func (r *Report) Write(w io.Writer) error {
	o := r.Opt
	backend := ""
	if o.Backend != "" && o.Backend != core.BackendProteus {
		backend = fmt.Sprintf(" backend=%s", o.Backend)
	}
	replicas := ""
	if o.HotReplicas > 1 {
		replicas = fmt.Sprintf(" replicas=%d", o.HotReplicas)
	}
	if _, err := fmt.Fprintf(w, "proteus-check seed=%d steps=%d plane=%s servers=%d initial=%d keys=%d ttl=%s%s%s\n",
		o.Seed, o.Steps, o.Plane, o.Servers, o.InitialActive, o.Keys, o.TTL, replicas, backend); err != nil {
		return err
	}
	st := r.Stats
	hot := ""
	if o.HotReplicas > 1 {
		hot = fmt.Sprintf(" %d promotes %d demotes", st.Promotes, st.Demotes)
	}
	fmt.Fprintf(w, "executed %d steps: %d gets %d sets %d scales %d advances %d crashes %d partitions %d heals%s\n",
		len(r.History), st.Gets, st.Sets, st.Scales, st.Advances, st.Crashes, st.Partitions, st.Heals, hot)
	fmt.Fprintf(w, "sources: %d hit %d migrated %d db; %d ownership flips\n",
		st.Hits, st.Migrated, st.DBFetches, st.Flips)
	if r.Violation == nil {
		_, err := fmt.Fprintln(w, "outcome: ok (all probes passed)")
		return err
	}
	fmt.Fprintf(w, "outcome: VIOLATION on plane %s\n", r.Plane)
	fmt.Fprintf(w, "  %s\n", r.Violation)
	if r.Min != nil {
		fmt.Fprintf(w, "shrunk to %d steps (from %d):\n", len(r.Min), len(r.History))
		for i, s := range r.Min {
			fmt.Fprintf(w, "  %3d  %s\n", i, s)
		}
		if r.MinViolation != nil {
			fmt.Fprintf(w, "minimal schedule fails with: %s\n", r.MinViolation)
		}
	}
	return nil
}
