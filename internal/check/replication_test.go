package check

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// With hot-key replication enabled the explorer adds promote/demote
// verbs and both planes replicate promoted keys; the full probe set —
// including write-fanout and replica-consistency — must stay quiet
// across seeds, and every schedule must actually exercise the hot set.
func TestReplicatedBothPlanesCleanAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rep, err := Explore(Options{Seed: seed, Steps: 700, Plane: PlaneBoth, HotReplicas: 2})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Violation != nil {
			t.Fatalf("seed %d: false alarm: %v (plane %s)", seed, rep.Violation, rep.Plane)
		}
		if rep.Stats.Promotes == 0 || rep.Stats.Flips == 0 {
			t.Fatalf("seed %d: schedule never stressed replication: %+v", seed, rep.Stats)
		}
	}
}

// Replicated explorations must stay byte-identical across runs: the
// load-aware replica choice on the live plane may not leak wall-clock
// nondeterminism into any checker-visible observation.
func TestReplicatedExploreDeterministic(t *testing.T) {
	opt := Options{Seed: 42, Steps: 1200, Plane: PlaneBoth, HotReplicas: 2}
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

// The seeded skip-fan-out bug (Set writes the primary only, stranding
// replicas on stale copies) must be caught by the write-fanout probe
// and shrink to the two-step essence: promote a key, then write it.
func TestSeededFanoutBugCaughtAndShrunk(t *testing.T) {
	opt := Options{Seed: 3, Steps: 2000, Plane: PlaneSim, HotReplicas: 2, SeedBugFanout: true}
	rep, err := Explore(opt)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if rep.Violation == nil {
		t.Fatalf("seeded fan-out bug not caught in %d steps", len(rep.History))
	}
	if rep.Min == nil {
		t.Fatalf("violation found but not shrunk")
	}
	if len(rep.Min) > 4 {
		t.Fatalf("minimal schedule has %d steps, want <= 4:\n%v", len(rep.Min), rep.Min)
	}
	if rep.MinViolation.Probe != "write-fanout" {
		t.Fatalf("probe %q caught the bug, want write-fanout", rep.MinViolation.Probe)
	}
	// The minimal schedule must reproduce on its own and be 1-minimal.
	replayOpt := Options{Plane: PlaneSim, HotReplicas: 2, SeedBugFanout: true}
	again, err := Replay(replayOpt, rep.Min)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if again.Violation == nil {
		t.Fatalf("minimal schedule did not reproduce the violation")
	}
	for i := range rep.Min {
		cand := append(append([]Step(nil), rep.Min[:i]...), rep.Min[i+1:]...)
		r, err := Replay(replayOpt, cand)
		if err != nil {
			t.Fatalf("replay minus step %d: %v", i, err)
		}
		if r.Violation != nil {
			t.Fatalf("schedule is not 1-minimal: still fails without step %d (%s)", i, rep.Min[i])
		}
	}
	// Without replication the same bug hook is unobservable: a single
	// owner IS the full fan-out.
	clean, err := Explore(Options{Seed: 3, Steps: 2000, Plane: PlaneSim, SeedBugFanout: true})
	if err != nil {
		t.Fatalf("explore unreplicated: %v", err)
	}
	if clean.Violation != nil {
		t.Fatalf("skip-fan-out flagged without replication: %v", clean.Violation)
	}
}

// The v2 artifact must round-trip the replication fields and the
// promote/demote verbs, and still accept v1 artifacts.
func TestReplicatedArtifactRoundTrip(t *testing.T) {
	rep, err := Explore(Options{Seed: 3, Steps: 2000, Plane: PlaneSim, HotReplicas: 2, SeedBugFanout: true})
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
	opt, steps, err := ParseArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse artifact: %v", err)
	}
	if opt.HotReplicas != 2 || !opt.SeedBugFanout {
		t.Fatalf("replication options did not round-trip: %+v", opt)
	}
	again, err := Replay(opt, steps)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if again.Violation == nil || again.Violation.Probe != rep.MinViolation.Probe {
		t.Fatalf("replayed violation %v, want probe %q", again.Violation, rep.MinViolation.Probe)
	}

	v1 := "proteus-check/v1\nseed 7\nplane sim\nservers 5\ninitial 3\nkeys 48\nttl 30s\nseed-bug false\nhistory 1\nget k000\n"
	opt1, steps1, err := ParseArtifact(strings.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 artifact rejected: %v", err)
	}
	if opt1.HotReplicas != 0 || len(steps1) != 1 {
		t.Fatalf("v1 parse drifted: %+v, %v", opt1, steps1)
	}
}

// Hand-built schedule walking the replicated protocol: promotion syncs
// every owner, writes fan out, a crashed replica falls back to the
// surviving copy, and the post-flip hot-sync keeps owners aligned.
func TestScriptedReplicationWalkthrough(t *testing.T) {
	opt := Options{Plane: PlaneSim, Servers: 5, InitialActive: 4, Keys: 16,
		TTL: time.Minute, HotReplicas: 2}.withDefaults()
	s, err := newSession(opt, PlaneSim)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	defer s.close()

	// Find a key with two distinct owners at the starting prefix.
	var key string
	for _, k := range keyUniverse(opt.Keys) {
		if owners := s.oracle.replicated.DistinctOwnersN(nil, k, 4, 2); len(owners) == 2 {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatalf("no key resolves to two distinct owners")
	}

	run := func(i int, st Step) Observation {
		t.Helper()
		obs, v := s.apply(i, st)
		if v != nil {
			t.Fatalf("step %d %s: violation %v", i, st, v)
		}
		return obs
	}
	run(0, Step{Kind: StepGet, Key: key}) // cold: db fill, single owner
	if obs := run(1, Step{Kind: StepPromote, Key: key}); !obs.Found {
		t.Fatalf("promotion refused with all owners reachable")
	}
	run(2, Step{Kind: StepSet, Key: key}) // fan-out write to both owners
	owners := s.oracle.Owners(key)
	if len(owners) != 2 {
		t.Fatalf("hot key resolves to %d owners, want 2", len(owners))
	}
	for _, o := range owners {
		if _, ok := s.oracle.NodeValue(o, key); !ok {
			t.Fatalf("owner %d missing the copy after fan-out", o)
		}
	}
	run(3, Step{Kind: StepCrash, Server: owners[1]}) // lose the replica
	if obs := run(4, Step{Kind: StepGet, Key: key}); obs.Src != SourceHit {
		t.Fatalf("surviving owner did not serve the hot key: src %s", obs.Src)
	}
	run(5, Step{Kind: StepScale, Target: 3}) // flip triggers the hot-sync sweep
	run(6, Step{Kind: StepGet, Key: key})
	if obs := run(7, Step{Kind: StepDemote, Key: key}); !obs.Found {
		// The sweep may already have demoted the key if an owner was dark.
		t.Logf("key already demoted by the post-flip sweep")
	}
	run(8, Step{Kind: StepGet, Key: key})
}
