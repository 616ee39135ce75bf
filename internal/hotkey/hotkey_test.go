package hotkey

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"proteus/internal/workload"
)

// exactCounts replays a stream into a plain map, the ground truth the
// sketch approximates.
func exactCounts(stream []string) map[string]uint64 {
	m := make(map[string]uint64)
	for _, k := range stream {
		m[k]++
	}
	return m
}

// exactTop returns the k keys with the highest true counts, ties broken
// by key to match Sketch.Top.
func exactTop(counts map[string]uint64, k int) []string {
	type kc struct {
		key string
		n   uint64
	}
	all := make([]kc, 0, len(counts))
	for key, n := range counts {
		all = append(all, kc{key, n})
	}
	// Deterministic selection sort order: count desc, key asc.
	for i := 0; i < len(all); i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].n > all[best].n || (all[j].n == all[best].n && all[j].key < all[best].key) {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
	}
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].key
	}
	return out
}

func zipfStream(t testing.TB, seed int64, s float64, keys, n int) []string {
	t.Helper()
	z, err := workload.NewZipf(rand.New(rand.NewSource(seed)), s, keys)
	if err != nil {
		t.Fatal(err)
	}
	stream := make([]string, n)
	for i := range stream {
		stream[i] = fmt.Sprintf("k%04d", z.Next())
	}
	return stream
}

// The sketch's core guarantee: every tracked estimate brackets the true
// count (true <= est <= true + err), and any untracked key's true count
// is at most the sketch minimum.
func TestSketchErrorBounds(t *testing.T) {
	for _, s := range []float64{0.7, 0.99, 1.2} {
		s := s
		t.Run(fmt.Sprintf("zipf_%.2f", s), func(t *testing.T) {
			stream := zipfStream(t, 42, s, 1000, 50000)
			truth := exactCounts(stream)
			sk := NewSketch(64)
			for _, k := range stream {
				sk.Observe(k)
			}
			min := sk.Min()
			for key, true_ := range truth {
				est, errB, tracked := sk.Count(key)
				if !tracked {
					if true_ > min {
						t.Fatalf("untracked key %s has true count %d > sketch min %d", key, true_, min)
					}
					continue
				}
				if est < true_ {
					t.Fatalf("key %s: estimate %d below true count %d", key, est, true_)
				}
				if est-errB > true_ {
					t.Fatalf("key %s: guaranteed count %d exceeds true count %d", key, est-errB, true_)
				}
			}
		})
	}
}

// Recall/precision of the sketch's top-k against exact counts across
// the Zipf exponents the paper's workloads span. The head of a Zipf
// distribution is exactly what space-saving is built to capture; demand
// high recall for the top 10 with a modest counter budget.
func TestSketchTopKRecall(t *testing.T) {
	for _, tc := range []struct {
		s         float64
		minRecall float64
	}{
		{0.7, 0.7}, // near-uniform: the "head" barely exists
		{0.99, 0.9},
		{1.2, 1.0},
	} {
		tc := tc
		t.Run(fmt.Sprintf("zipf_%.2f", tc.s), func(t *testing.T) {
			const topK = 10
			stream := zipfStream(t, 7, tc.s, 2000, 100000)
			truth := exactCounts(stream)
			sk := NewSketch(128)
			for _, k := range stream {
				sk.Observe(k)
			}
			want := exactTop(truth, topK)
			got := sk.Top(topK)
			gotSet := make(map[string]bool, len(got))
			for _, e := range got {
				gotSet[e.Key] = true
			}
			hits := 0
			for _, k := range want {
				if gotSet[k] {
					hits++
				}
			}
			recall := float64(hits) / float64(len(want))
			if recall < tc.minRecall {
				t.Fatalf("top-%d recall %.2f below %.2f (s=%.2f)", topK, recall, tc.minRecall, tc.s)
			}
		})
	}
}

// Adversarial rotating hot set: the hot keys change every phase. The
// sketch must track the *current* phase's head (space-saving recycles
// the minimum counter, so stale hot keys age out), and the tracker's
// decayed windows must follow the rotation.
func TestSketchRotatingHotSet(t *testing.T) {
	const (
		phases    = 5
		perPhase  = 20000
		hotPerPh  = 4
		coldSpace = 500
	)
	rng := rand.New(rand.NewSource(99))
	sk := NewSketch(64)
	for phase := 0; phase < phases; phase++ {
		for i := 0; i < perPhase; i++ {
			if rng.Intn(100) < 60 { // 60% of traffic on this phase's hot keys
				sk.Observe(fmt.Sprintf("hot-p%d-%d", phase, rng.Intn(hotPerPh)))
			} else {
				sk.Observe(fmt.Sprintf("cold-%d", rng.Intn(coldSpace)))
			}
		}
	}
	// After the final phase, its hot keys must dominate the sketch top.
	top := sk.Top(hotPerPh)
	for _, e := range top {
		var phase, idx int
		if _, err := fmt.Sscanf(e.Key, "hot-p%d-%d", &phase, &idx); err != nil {
			t.Fatalf("top entry %q is not a hot key", e.Key)
		}
		if phase != phases-1 {
			t.Fatalf("top entry %q is from stale phase %d", e.Key, phase)
		}
	}
}

// Seeded determinism per the transdeterminism lint contract: the same
// stream produces bit-identical sketches and tracker decisions.
func TestSketchDeterministic(t *testing.T) {
	run := func() ([]Entry, []Change) {
		stream := zipfStream(t, 1234, 0.99, 500, 30000)
		sk := NewSketch(32)
		tr := NewTracker(TrackerConfig{Capacity: 32, MaxHot: 4, Window: 1000})
		var changes []Change
		for _, k := range stream {
			sk.Observe(k)
			changes = append(changes, tr.Observe(k)...)
		}
		return sk.Top(0), changes
	}
	t1, c1 := run()
	t2, c2 := run()
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("sketch tops differ between identical runs:\n%v\n%v", t1, t2)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("tracker decisions differ between identical runs:\n%v\n%v", c1, c2)
	}
}

func TestSketchDecayAndReset(t *testing.T) {
	sk := NewSketch(8)
	sk.ObserveN("a", 10)
	sk.ObserveN("b", 3)
	sk.ObserveN("c", 1)
	sk.Decay()
	if est, _, ok := sk.Count("a"); !ok || est != 5 {
		t.Fatalf("a after decay: est=%d ok=%v, want 5", est, ok)
	}
	if _, _, ok := sk.Count("c"); ok {
		t.Fatal("c should age out at count 1/2 = 0")
	}
	if sk.Len() != 2 {
		t.Fatalf("len %d after decay, want 2", sk.Len())
	}
	sk.Reset()
	if sk.Len() != 0 || sk.Min() != 0 {
		t.Fatal("reset did not empty the sketch")
	}
}

// Promotion needs a sustained share; demotion waits for the hysteresis
// floor. A key oscillating between the two thresholds must not flap.
func TestTrackerHysteresis(t *testing.T) {
	tr := NewTracker(TrackerConfig{
		Capacity:     32,
		MaxHot:       4,
		Window:       1000,
		PromoteShare: 0.10, // demotion floor 0.05
	})
	feed := func(hotEvery int) []Change {
		var out []Change
		for i := 0; i < 1000; i++ {
			k := fmt.Sprintf("cold-%d", i%100)
			if hotEvery > 0 && i%hotEvery == 0 {
				k = "hot"
			}
			out = append(out, tr.Observe(k)...)
		}
		return out
	}
	// Window 1: 20% share -> promoted.
	ch := feed(5)
	if len(ch) != 1 || !ch[0].Promote || ch[0].Key != "hot" {
		t.Fatalf("window 1 changes %v, want promote hot", ch)
	}
	if !tr.Hot("hot") {
		t.Fatal("hot not promoted")
	}
	// Window 2: share drops to ~6% — between the thresholds, so the key
	// must stay promoted (hysteresis).
	if ch := feed(16); len(ch) != 0 {
		t.Fatalf("window 2 changes %v, want none (hysteresis)", ch)
	}
	if !tr.Hot("hot") {
		t.Fatal("hot demoted inside the hysteresis band")
	}
	// Windows 3-4: the key goes fully cold; decay drags its share below
	// the floor and it is demoted.
	feed(0)
	feed(0)
	if tr.Hot("hot") {
		t.Fatal("cold key still promoted after two cold windows")
	}
}

func TestTrackerMaxHotBudget(t *testing.T) {
	tr := NewTracker(TrackerConfig{Capacity: 64, MaxHot: 2, Window: 900, PromoteShare: 0.05})
	// Three keys each take ~33% of the window; only MaxHot may promote.
	for i := 0; i < 3000; i++ {
		tr.Observe(fmt.Sprintf("h%d", i%3))
	}
	if n := len(tr.HotKeys()); n > 2 {
		t.Fatalf("%d keys promoted, budget is 2", n)
	}
}

// The coordinator observes every GET, so a warm sketch must take a
// Zipf(0.99) stream — counter bumps for the tracked head, space-saving
// evictions for the tail — without allocating.
func TestSketchObserveAllocs(t *testing.T) {
	stream := zipfStream(t, 2, 0.99, 4096, 1<<14)
	sk := NewSketch(64)
	for _, k := range stream {
		sk.Observe(k)
	}
	i := 0
	if allocs := testing.AllocsPerRun(len(stream), func() {
		sk.Observe(stream[i%len(stream)])
		i++
	}); allocs != 0 {
		t.Fatalf("Observe allocates %.1f times per op, want 0", allocs)
	}
}

func BenchmarkSketchObserve(b *testing.B) {
	stream := zipfStream(b, 2, 0.99, 4096, 1<<16)
	sk := NewSketch(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Observe(stream[i%len(stream)])
	}
}
