package check

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"proteus/internal/core"
)

// The sim plane's summary for seeds 11-13 at 5000 steps, recorded from
// the proteus-check binary of the commit before the planes were merged
// (when the sim plane ran sim.Harness's own Algorithm 2, not
// webtier.Frontend). Every case shares the header and the clean
// outcome; the step counts depend on (seed, replicas) only, the sources
// on the backend too. A change here means webtier's request path no
// longer does, step for step, what the deleted one did.
func TestSimPlaneSummariesMatchRecordedParent(t *testing.T) {
	steps := map[[2]int]string{ // {seed, replicas}
		{11, 1}: "2802 gets 758 sets 396 scales 422 advances 185 crashes 255 partitions 182 heals",
		{12, 1}: "2829 gets 741 sets 421 scales 388 advances 193 crashes 251 partitions 177 heals",
		{13, 1}: "2792 gets 738 sets 422 scales 396 advances 205 crashes 257 partitions 190 heals",
		{11, 2}: "2082 gets 599 sets 354 scales 407 advances 264 crashes 368 partitions 283 heals 440 promotes 203 demotes",
		{12, 2}: "2117 gets 617 sets 408 scales 421 advances 233 crashes 351 partitions 258 heals 400 promotes 195 demotes",
		{13, 2}: "2073 gets 598 sets 434 scales 427 advances 243 crashes 374 partitions 274 heals 360 promotes 217 demotes",
	}
	cases := []struct {
		backend  core.BackendKind
		replicas int
		seed     int64
		sources  string
	}{
		{core.BackendProteus, 1, 11, "215 hit 55 migrated 2532 db; 396 ownership flips"},
		{core.BackendProteus, 1, 12, "199 hit 36 migrated 2594 db; 421 ownership flips"},
		{core.BackendProteus, 1, 13, "184 hit 38 migrated 2570 db; 422 ownership flips"},
		{core.BackendProteus, 2, 11, "171 hit 28 migrated 1883 db; 354 ownership flips"},
		{core.BackendProteus, 2, 12, "173 hit 32 migrated 1912 db; 408 ownership flips"},
		{core.BackendProteus, 2, 13, "227 hit 46 migrated 1800 db; 434 ownership flips"},
		{core.BackendPCH, 1, 11, "226 hit 37 migrated 2539 db; 396 ownership flips"},
		{core.BackendPCH, 1, 12, "214 hit 39 migrated 2576 db; 421 ownership flips"},
		{core.BackendPCH, 1, 13, "196 hit 34 migrated 2562 db; 422 ownership flips"},
		{core.BackendPCH, 2, 11, "203 hit 34 migrated 1845 db; 354 ownership flips"},
		{core.BackendPCH, 2, 12, "218 hit 50 migrated 1849 db; 408 ownership flips"},
		{core.BackendPCH, 2, 13, "276 hit 54 migrated 1743 db; 434 ownership flips"},
		{core.BackendJump, 1, 11, "286 hit 51 migrated 2465 db; 396 ownership flips"},
		{core.BackendJump, 1, 12, "229 hit 40 migrated 2560 db; 421 ownership flips"},
		{core.BackendJump, 1, 13, "208 hit 37 migrated 2547 db; 422 ownership flips"},
		{core.BackendJump, 2, 11, "200 hit 27 migrated 1855 db; 354 ownership flips"},
		{core.BackendJump, 2, 12, "244 hit 24 migrated 1849 db; 408 ownership flips"},
		{core.BackendJump, 2, 13, "264 hit 44 migrated 1765 db; 434 ownership flips"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/r%d/seed%d", c.backend, c.replicas, c.seed), func(t *testing.T) {
			rep, err := Explore(Options{Seed: c.seed, Steps: 5000, Plane: PlaneSim, HotReplicas: c.replicas, Backend: c.backend})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := rep.Write(&buf); err != nil {
				t.Fatal(err)
			}
			_, got, _ := strings.Cut(buf.String(), "\n") // the header echoes the options
			want := "executed 5000 steps: " + steps[[2]int{int(c.seed), c.replicas}] + "\n" +
				"sources: " + c.sources + "\n" +
				"outcome: ok (all probes passed)\n"
			if got != want {
				t.Errorf("summary drifted from the recorded parent:\n got: %q\nwant: %q", got, want)
			}
		})
	}
}

// A key the backing store does not know is the same observation on both
// planes — not found, from the database, as the oracle predicts — and
// not a client-visible error on one of them.
func TestUnknownKeyObservedAlikeOnBothPlanes(t *testing.T) {
	opt := Options{Keys: 4}.withDefaults()
	want := Observation{Src: SourceDB}
	for _, kind := range []PlaneKind{PlaneSim, PlaneLive} {
		s, err := newSession(opt, kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		obs, v := s.apply(0, Step{Kind: StepGet, Key: "no-such-key"})
		s.close()
		if v != nil {
			t.Errorf("%s: violation %v", kind, v)
		}
		if obs != want {
			t.Errorf("%s: observed %+v, want %+v", kind, obs, want)
		}
	}
}

// The seeded bugs are hooks of the sim plane; a run that would put one
// on the live stack is refused before anything is built.
func TestSeededBugsRefusedOnLivePlane(t *testing.T) {
	for _, opt := range []Options{
		{Plane: PlaneLive, SeedBug: true},
		{Plane: PlaneBoth, SeedBug: true},
		{Plane: PlaneLive, HotReplicas: 2, SeedBugFanout: true},
		{Plane: PlaneBoth, HotReplicas: 2, SeedBugFanout: true},
	} {
		opt.Seed, opt.Steps = 3, 50
		if _, err := Explore(opt); err == nil || !strings.Contains(err.Error(), "sim-plane only") {
			t.Errorf("plane=%s bug=%v fanout=%v: err = %v, want a sim-plane-only refusal",
				opt.Plane, opt.SeedBug, opt.SeedBugFanout, err)
		}
	}
}
