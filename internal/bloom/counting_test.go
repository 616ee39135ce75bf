package bloom

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCounting(t testing.TB, p Params) *CountingFilter {
	t.Helper()
	f, err := NewCounting(p)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func key(i int) string { return fmt.Sprintf("page:%d", i) }

func TestNewCountingValidation(t *testing.T) {
	bad := []Params{
		{Counters: 0, CounterBits: 4, Hashes: 4},
		{Counters: 100, CounterBits: 0, Hashes: 4},
		{Counters: 100, CounterBits: 17, Hashes: 4},
		{Counters: 100, CounterBits: 4, Hashes: 0},
		{Counters: 100, CounterBits: 4, Hashes: 33},
	}
	for _, p := range bad {
		if _, err := NewCounting(p); err == nil {
			t.Errorf("NewCounting(%+v): want error", p)
		}
	}
	if _, err := NewCounting(Params{Counters: 100, CounterBits: 4, Hashes: 4, Mode: OverflowMode(9)}); err == nil {
		t.Error("unknown overflow mode accepted")
	}
}

func TestDefaultModeIsSaturate(t *testing.T) {
	f := mustCounting(t, Params{Counters: 64, CounterBits: 4, Hashes: 2})
	if f.Params().Mode != Saturate {
		t.Errorf("default mode = %v, want Saturate", f.Params().Mode)
	}
}

func TestInsertContainsDelete(t *testing.T) {
	f := mustCounting(t, Params{Counters: 1 << 14, CounterBits: 4, Hashes: 4})
	const n = 1000
	for i := 0; i < n; i++ {
		f.Insert(key(i))
	}
	if f.Keys() != n {
		t.Fatalf("Keys = %d, want %d", f.Keys(), n)
	}
	for i := 0; i < n; i++ {
		if !f.Contains(key(i)) {
			t.Fatalf("inserted key %d reported absent (false negative without deletions)", i)
		}
	}
	for i := 0; i < n; i += 2 {
		f.Delete(key(i))
	}
	for i := 1; i < n; i += 2 {
		if !f.Contains(key(i)) {
			t.Fatalf("remaining key %d reported absent after unrelated deletions", i)
		}
	}
	if f.Keys() != n/2 {
		t.Fatalf("Keys = %d after deletions, want %d", f.Keys(), n/2)
	}
}

func TestDeleteAllEmptiesFilter(t *testing.T) {
	f := mustCounting(t, Params{Counters: 1 << 12, CounterBits: 4, Hashes: 3})
	const n = 300
	for i := 0; i < n; i++ {
		f.Insert(key(i))
	}
	for i := 0; i < n; i++ {
		f.Delete(key(i))
	}
	for i := range f.words {
		if f.words[i] != 0 {
			t.Fatalf("word %d nonzero after deleting every key", i)
		}
	}
}

func TestFalsePositiveRateNearEq4(t *testing.T) {
	p := Params{Counters: 1 << 15, CounterBits: 4, Hashes: 4}
	f := mustCounting(t, p)
	const inserted = 8192
	for i := 0; i < inserted; i++ {
		f.Insert(key(i))
	}
	const probes = 40000
	fp := 0
	for i := 0; i < probes; i++ {
		if f.Contains(fmt.Sprintf("absent:%d", i)) {
			fp++
		}
	}
	got := float64(fp) / probes
	want := FalsePositiveRate(p.Counters, p.Hashes, inserted)
	if got > want*2+0.005 || got < want/4 {
		t.Errorf("measured FP rate %.5f, Eq.4 predicts %.5f", got, want)
	}
}

func TestWrapModeCanFalseNegative(t *testing.T) {
	// 1-bit counters with wrap: two inserts overflow to 0 and membership
	// of the co-located key is lost.
	f := mustCounting(t, Params{Counters: 64, CounterBits: 1, Hashes: 1, Mode: Wrap})
	for i := 0; i < 500; i++ {
		f.Insert(key(i))
	}
	fn := 0
	for i := 0; i < 500; i++ {
		if !f.Contains(key(i)) {
			fn++
		}
	}
	if fn == 0 {
		t.Error("wrap mode with tiny counters produced no false negatives; expected overflow losses")
	}
	if f.Overflows() == 0 {
		t.Error("Overflows() = 0 after guaranteed overflow churn")
	}
}

func TestSaturateModeNeverFalseNegative(t *testing.T) {
	f := mustCounting(t, Params{Counters: 64, CounterBits: 1, Hashes: 1, Mode: Saturate})
	const n = 500
	for i := 0; i < n; i++ {
		f.Insert(key(i))
	}
	// Delete a disjoint set that was also inserted, then check survivors.
	for i := n / 2; i < n; i++ {
		f.Delete(key(i))
	}
	for i := 0; i < n/2; i++ {
		if !f.Contains(key(i)) {
			t.Fatalf("saturate mode lost key %d", i)
		}
	}
	if f.SaturatedCounters() == 0 {
		t.Error("SaturatedCounters() = 0 despite forced saturation")
	}
}

func TestResetClears(t *testing.T) {
	f := mustCounting(t, Params{Counters: 256, CounterBits: 4, Hashes: 4})
	for i := 0; i < 100; i++ {
		f.Insert(key(i))
	}
	f.Reset()
	if f.Keys() != 0 {
		t.Errorf("Keys = %d after Reset", f.Keys())
	}
	for i := 0; i < 100; i++ {
		if f.Contains(key(i)) {
			t.Fatalf("key %d present after Reset", i)
		}
	}
}

// Packed counters that straddle 64-bit word boundaries must round-trip.
func TestCounterPackingAcrossWords(t *testing.T) {
	for _, b := range []int{1, 3, 4, 5, 7, 11, 12, 13, 16} {
		f := mustCounting(t, Params{Counters: 200, CounterBits: b, Hashes: 1})
		rng := rand.New(rand.NewSource(int64(b)))
		want := make([]uint32, 200)
		for i := range want {
			want[i] = rng.Uint32() & f.max
			f.setCounter(i, want[i])
		}
		for i := range want {
			if got := f.counter(i); got != want[i] {
				t.Fatalf("b=%d: counter %d = %d, want %d", b, i, got, want[i])
			}
		}
	}
}

// Property: in saturate mode, any interleaving of inserts and matched
// deletes keeps all never-deleted keys visible.
func TestQuickNoFalseNegativesSaturate(t *testing.T) {
	prop := func(ops []uint16, seed int64) bool {
		f, err := NewCounting(Params{Counters: 512, CounterBits: 3, Hashes: 3, Mode: Saturate})
		if err != nil {
			return false
		}
		live := map[string]bool{}
		for _, op := range ops {
			k := key(int(op % 128))
			if live[k] {
				f.Delete(k)
				delete(live, k)
			} else {
				f.Insert(k)
				live[k] = true
			}
		}
		for k := range live {
			if !f.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotMatchesCountingMembership(t *testing.T) {
	f := mustCounting(t, Params{Counters: 1 << 13, CounterBits: 4, Hashes: 4})
	for i := 0; i < 2000; i++ {
		f.Insert(key(i))
	}
	snap := f.Snapshot()
	for i := 0; i < 2000; i++ {
		if !snap.Contains(key(i)) {
			t.Fatalf("snapshot lost key %d", i)
		}
	}
	// Snapshot must agree with counting filter on arbitrary probes.
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("probe:%d", i)
		if snap.Contains(k) != f.Contains(k) {
			t.Fatalf("snapshot and counting filter disagree on %q", k)
		}
	}
}

// The digest is updated on every cache SET and probed on every
// transition-window miss; neither may allocate.
func TestCountingInsertContainsAllocs(t *testing.T) {
	f, err := NewCounting(Params{Counters: 1 << 16, CounterBits: 4, Hashes: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		name string
		fn   func()
	}{
		{"Insert", func() { f.Insert("page:1") }},
		{"Contains", func() { f.Contains("page:1") }},
	} {
		if allocs := testing.AllocsPerRun(1000, op.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f times per op, want 0", op.name, allocs)
		}
	}
}

func BenchmarkCountingInsert(b *testing.B) {
	f, err := NewCounting(Params{Counters: 1 << 19, CounterBits: 4, Hashes: 4})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = key(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Insert(keys[i%len(keys)])
	}
}

func BenchmarkCountingContains(b *testing.B) {
	f, err := NewCounting(Params{Counters: 1 << 19, CounterBits: 4, Hashes: 4})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = key(i)
		f.Insert(keys[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains(keys[i%len(keys)])
	}
}
