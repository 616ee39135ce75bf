package check

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// Two explorations with one seed must render byte-identical reports —
// the determinism contract the CLI's CI diff relies on.
func TestExploreDeterministic(t *testing.T) {
	opt := Options{Seed: 42, Steps: 1200, Plane: PlaneBoth}
	var out [2]bytes.Buffer
	for i := range out {
		rep, err := Explore(opt)
		if err != nil {
			t.Fatalf("explore: %v", err)
		}
		if rep.Violation != nil {
			t.Fatalf("unexpected violation: %v", rep.Violation)
		}
		if err := rep.Write(&out[i]); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatalf("reports differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", out[0].String(), out[1].String())
	}
}

// Healthy planes must stay violation-free across seeds: a false alarm
// here means the oracle has drifted from the system's semantics.
func TestBothPlanesCleanAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rep, err := Explore(Options{Seed: seed, Steps: 700, Plane: PlaneBoth})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Violation != nil {
			t.Fatalf("seed %d: false alarm: %v (plane %s)", seed, rep.Violation, rep.Plane)
		}
		if rep.Stats.Flips == 0 || rep.Stats.Hits == 0 {
			t.Fatalf("seed %d: schedule too tame to mean anything: %+v", seed, rep.Stats)
		}
	}
}

// The deliberately seeded early-power-off bug (sim harness hook) must
// be caught by a probe and shrunk to a short reproducing schedule.
func TestSeededBugCaughtAndShrunk(t *testing.T) {
	rep, err := Explore(Options{Seed: 3, Steps: 2000, Plane: PlaneSim, SeedBug: true})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if rep.Violation == nil {
		t.Fatalf("seeded bug not caught in %d steps", len(rep.History))
	}
	if rep.Min == nil {
		t.Fatalf("violation found but not shrunk")
	}
	if len(rep.Min) > 20 {
		t.Fatalf("minimal schedule has %d steps, want <= 20", len(rep.Min))
	}
	if rep.MinViolation.Probe != "power-safety" {
		t.Fatalf("probe %q caught the bug, want power-safety", rep.MinViolation.Probe)
	}
	// The minimal schedule must reproduce on its own.
	again, err := Replay(Options{Plane: PlaneSim, SeedBug: true}, rep.Min)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if again.Violation == nil {
		t.Fatalf("minimal schedule did not reproduce the violation")
	}
	// And it must be 1-minimal: dropping any step loses the bug.
	for i := range rep.Min {
		cand := append(append([]Step(nil), rep.Min[:i]...), rep.Min[i+1:]...)
		r, err := Replay(Options{Plane: PlaneSim, SeedBug: true}, cand)
		if err != nil {
			t.Fatalf("replay minus step %d: %v", i, err)
		}
		if r.Violation != nil {
			t.Fatalf("schedule is not 1-minimal: still fails without step %d (%s)", i, rep.Min[i])
		}
	}
}

// The .check artifact must round-trip: write, parse, replay, same
// violation.
func TestArtifactRoundTrip(t *testing.T) {
	rep, err := Explore(Options{Seed: 3, Steps: 2000, Plane: PlaneSim, SeedBug: true})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if rep.Violation == nil {
		t.Fatalf("need a violation to round-trip")
	}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, rep); err != nil {
		t.Fatalf("write artifact: %v", err)
	}
	if !strings.Contains(buf.String(), "events\n") {
		t.Fatalf("artifact missing event stream:\n%s", buf.String())
	}
	opt, steps, err := ParseArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse artifact: %v", err)
	}
	if !opt.SeedBug || opt.Plane != PlaneSim || opt.Servers != rep.Opt.Servers {
		t.Fatalf("options did not round-trip: %+v", opt)
	}
	if len(steps) != len(rep.Min) {
		t.Fatalf("parsed %d steps, wrote %d", len(steps), len(rep.Min))
	}
	again, err := Replay(opt, steps)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if again.Violation == nil || again.Violation.Probe != rep.MinViolation.Probe {
		t.Fatalf("replayed violation %v, want probe %q", again.Violation, rep.MinViolation.Probe)
	}

	if _, _, err := ParseArtifact(strings.NewReader("not an artifact\n")); err == nil {
		t.Fatalf("junk input parsed as artifact")
	}
}

// Every step kind must round-trip through its textual form.
func TestStepTextRoundTrip(t *testing.T) {
	steps := []Step{
		{Kind: StepGet, Key: "k007"},
		{Kind: StepSet, Key: "k013"},
		{Kind: StepPromote, Key: "k002"},
		{Kind: StepDemote, Key: "k002"},
		{Kind: StepScale, Target: 4},
		{Kind: StepCrash, Server: 2},
		{Kind: StepPartition, Server: 1},
		{Kind: StepHeal, Server: 1},
		{Kind: StepAdvance, Skip: 7500 * time.Millisecond},
	}
	for _, want := range steps {
		got, err := parseStep(want.String())
		if err != nil {
			t.Fatalf("parse %q: %v", want.String(), err)
		}
		if got != want {
			t.Fatalf("round trip %q: got %+v want %+v", want.String(), got, want)
		}
	}
	if _, err := parseStep("launch missiles"); err == nil {
		t.Fatalf("nonsense step parsed")
	}
}

// An overlapping transition supersedes the pending TTL expiry. Engine
// events cannot be cancelled, so the first window's expiry still fires;
// were it to finalize the second window it would power a dying node off
// half a TTL early — exactly the schedule this test replays on both
// planes.
func TestOverlappingTransitionsSupersedePendingExpiry(t *testing.T) {
	ttl := 30 * time.Second
	steps := []Step{
		{Kind: StepScale, Target: 4},
		{Kind: StepAdvance, Skip: ttl / 2},
		{Kind: StepScale, Target: 3}, // finalizes the first window; its expiry stays queued
		{Kind: StepAdvance, Skip: ttl / 2},
		// Total elapsed = first window's deadline: the stale expiry has
		// just fired, and must not have closed the 4->3 window.
		{Kind: StepGet, Key: "k000"},
	}
	rep, err := Replay(Options{Plane: PlaneBoth, TTL: ttl}, steps)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Violation != nil {
		t.Fatalf("stale expiry closed the newer window: %v", rep.Violation)
	}
}

// Hand-built schedule: the oracle and sim plane must walk through
// Algorithm 2's phases — write-through hit, on-demand migration during
// a shrink window, database fall-back after a crash.
func TestScriptedAlgorithm2Walkthrough(t *testing.T) {
	opt := Options{Plane: PlaneSim, Servers: 4, InitialActive: 4, Keys: 8, TTL: time.Minute}.withDefaults()
	s, err := newSession(opt, PlaneSim)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	defer s.close()

	// Find a key that moves when the prefix shrinks 4 -> 3.
	var moved string
	for _, k := range keyUniverse(opt.Keys) {
		if s.oracle.Placement().Lookup(k, 4) != s.oracle.Placement().Lookup(k, 3) {
			moved = k
			break
		}
	}
	if moved == "" {
		t.Fatalf("no key moves under 4 -> 3 in a universe of %d", opt.Keys)
	}

	run := func(i int, st Step, wantSrc Source) {
		t.Helper()
		obs, v := s.apply(i, st)
		if v != nil {
			t.Fatalf("step %d %s: violation %v", i, st, v)
		}
		if st.Kind == StepGet && obs.Src != wantSrc {
			t.Fatalf("step %d %s: served from %s, want %s", i, st, obs.Src, wantSrc)
		}
	}
	run(0, Step{Kind: StepGet, Key: moved}, SourceDB)       // cold miss, write-through
	run(1, Step{Kind: StepGet, Key: moved}, SourceHit)      // now resident on the owner
	run(2, Step{Kind: StepScale, Target: 3}, SourceNone)    // shrink opens the window
	run(3, Step{Kind: StepGet, Key: moved}, SourceMigrated) // digest consult, amortized move
	run(4, Step{Kind: StepGet, Key: moved}, SourceHit)      // second read hits the new owner
	run(5, Step{Kind: StepAdvance, Skip: 2 * time.Minute}, SourceNone)
	if s.oracle.NodeOn(3) {
		t.Fatalf("dying node still on after the TTL window closed")
	}
	run(6, Step{Kind: StepCrash, Server: s.oracle.Owner(moved)}, SourceNone)
	run(7, Step{Kind: StepGet, Key: moved}, SourceDB) // owner dark: degrade to the database
}
