package sim

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestEngineMatchesSortedReference drives the engine the way the
// simulator does — ties, events that schedule events (some in the
// past), several Run horizons with events left at and beyond each —
// and checks the firing order against the definition: ascending
// (time after clamping, scheduling order).
func TestEngineMatchesSortedReference(t *testing.T) {
	t.Parallel()
	type scheduled struct {
		at time.Duration // after the clamp to now
		id int           // scheduling order
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var all []scheduled
		var fired []int
		// Times come from a small grid so that most events tie with others.
		randomTime := func() time.Duration { return time.Duration(rng.Intn(400)) * time.Millisecond }

		var schedule func(at time.Duration, children int)
		schedule = func(at time.Duration, children int) {
			id := len(all)
			all = append(all, scheduled{at: max(at, e.Now()), id: id})
			e.At(at, func() {
				if now := e.Now(); now != all[id].at {
					t.Fatalf("seed %d: event %d fired at %v, want %v", seed, id, now, all[id].at)
				}
				fired = append(fired, id)
				for c := 0; c < children; c++ {
					// Anywhere on the grid: about half land in the past.
					schedule(randomTime(), rng.Intn(children))
				}
			})
		}
		for i := 0; i < 300; i++ {
			schedule(randomTime(), rng.Intn(4))
		}

		want := func(until time.Duration) []int {
			var ids []int
			ref := slices.Clone(all)
			slices.SortStableFunc(ref, func(a, b scheduled) int { return cmp.Compare(a.at, b.at) })
			for _, s := range ref {
				if s.at < until {
					ids = append(ids, s.id)
				}
			}
			return ids
		}
		for _, until := range []time.Duration{0, 100 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond, time.Second} {
			e.Run(until)
			if e.Now() != until {
				t.Fatalf("seed %d: Now = %v after Run(%v)", seed, e.Now(), until)
			}
			if w := want(until); !slices.Equal(fired, w) {
				t.Fatalf("seed %d: by %v fired %d events, reference has %d; first difference at %d",
					seed, until, len(fired), len(w), firstDifference(fired, w))
			}
			if got, wantPending := e.pending(), len(all)-len(fired); got != wantPending {
				t.Fatalf("seed %d: pending = %d at %v, want %d", seed, got, until, wantPending)
			}
		}
		if e.pending() != 0 {
			t.Fatalf("seed %d: %d events never fired", seed, e.pending())
		}
	}
}

func firstDifference(a, b []int) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// steadyEngine returns an engine holding depth events that each fire
// and, while the budget lasts, schedule themselves again: one At and one
// pop per event at a constant queue depth, which is what the closed user
// loop does to the engine.
func steadyEngine(depth int, budget *int) *Engine {
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 1024)
	for i := range delays {
		delays[i] = time.Duration(1 + rng.Int63n(int64(time.Second)))
	}
	e := NewEngine()
	var tick func()
	tick = func() {
		if *budget > 0 {
			*budget--
			e.After(delays[*budget%len(delays)], tick)
		}
	}
	for i := 0; i < depth; i++ {
		e.At(delays[i%len(delays)], tick)
	}
	return e
}

// TestEngineAllocs pins the scheduler's contract with the simulator: a
// warmed engine schedules and fires an event without allocating.
func TestEngineAllocs(t *testing.T) {
	budget := math.MaxInt
	e := steadyEngine(1000, &budget)
	allocs := testing.AllocsPerRun(100, func() { e.Run(e.Now() + time.Second) })
	if fired := math.MaxInt - budget; fired < 100_000 {
		t.Fatalf("only %d events fired: not a measurement", fired)
	}
	if allocs != 0 {
		t.Fatalf("a second of At+pop on a warm engine allocated %v times, want 0", allocs)
	}
}

// TestEngineReleasesFiredEvents pins the zeroing of the vacated heap
// slot: once an event has fired, the engine must not keep its closure —
// and the user, key or page the closure captured — reachable.
func TestEngineReleasesFiredEvents(t *testing.T) {
	e := NewEngine()
	const events = 64
	collected := make(chan struct{}, events)
	func() { // its own frame, so no stale stack slot keeps a page alive
		for i := 0; i < events; i++ {
			page := new([4096]byte)
			runtime.SetFinalizer(page, func(*[4096]byte) { collected <- struct{}{} })
			e.At(time.Duration(events-i), func() { page[0]++ })
		}
	}()
	e.Run(time.Hour)
	deadline := time.After(10 * time.Second)
	for got := 0; got < events; got++ {
		runtime.GC()
		select {
		case <-collected:
		case <-deadline:
			t.Fatalf("%d of %d fired events' captures were still reachable from the drained engine", events-got, events)
		}
	}
	runtime.KeepAlive(e)
}

// TestRunAllocsPerRequest keeps the per-request closure and the
// per-event heap node from creeping back; either would add 1.0. What a
// run at this scale does allocate is 0.28 per request: about 0.13 of
// set-up (each user's page set, the cache nodes) and three per database
// fetch — the write-through event's closure, the cache entry it inserts
// and the owners slice — on the 4% of requests that miss.
func TestRunAllocsPerRequest(t *testing.T) {
	cfg := testConfig(t, ScenarioProteus)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perReq := float64(after.Mallocs-before.Mallocs) / float64(res.Stats.Requests)
	t.Logf("%d requests, %.3f mallocs per request", res.Stats.Requests, perReq)
	if perReq > 0.5 {
		t.Fatalf("%.3f mallocs per simulated request, want at most 0.5", perReq)
	}
}

func BenchmarkEngineEvent(b *testing.B) {
	budget := b.N
	e := steadyEngine(1000, &budget)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(math.MaxInt64)
}
