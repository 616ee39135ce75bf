package cache

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// fakeClock is an adjustable clock for TTL tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2013, 7, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestGetSetDelete(t *testing.T) {
	c := New(Config{Clock: time.Now})
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Set("a", []byte("1"), 0)
	v, ok := c.Get("a")
	if !ok || string(v) != "1" {
		t.Fatalf("Get(a) = %q,%v want 1,true", v, ok)
	}
	if !c.Delete("a") {
		t.Fatal("Delete(a) = false on resident key")
	}
	if c.Delete("a") {
		t.Fatal("Delete(a) = true on absent key")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("deleted key still resident")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Sets != 1 || s.Deletes != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestOverwriteReplacesValue(t *testing.T) {
	c := New(Config{Clock: time.Now})
	c.Set("k", []byte("old"), 0)
	c.Set("k", []byte("new"), 0)
	v, _ := c.Get("k")
	if string(v) != "new" {
		t.Fatalf("value = %q, want new", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	// Capacity for ~3 items of this size. Shards: 1 pins exact global
	// LRU order; with more shards eviction is LRU per shard.
	itemSize := int64(len("key-0")+1) + itemOverhead
	c := New(Config{Clock: time.Now, MaxBytes: 3 * itemSize, Shards: 1})
	for i := 0; i < 4; i++ {
		c.Set(fmt.Sprintf("key-%d", i), []byte("x"), 0)
	}
	if _, ok := c.Get("key-0"); ok {
		t.Fatal("LRU item key-0 not evicted")
	}
	for i := 1; i < 4; i++ {
		if _, ok := c.Get(fmt.Sprintf("key-%d", i)); !ok {
			t.Fatalf("key-%d evicted out of LRU order", i)
		}
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("Evictions = %d, want 1", ev)
	}
}

func TestGetRefreshesRecency(t *testing.T) {
	itemSize := int64(len("key-0")+1) + itemOverhead
	c := New(Config{Clock: time.Now, MaxBytes: 3 * itemSize, Shards: 1})
	c.Set("key-0", []byte("x"), 0)
	c.Set("key-1", []byte("x"), 0)
	c.Set("key-2", []byte("x"), 0)
	c.Get("key-0") // key-0 becomes MRU; key-1 is now LRU
	c.Set("key-3", []byte("x"), 0)
	if _, ok := c.Get("key-1"); ok {
		t.Fatal("key-1 should have been evicted")
	}
	if _, ok := c.Get("key-0"); !ok {
		t.Fatal("recently read key-0 was evicted")
	}
}

func TestTTLExpiry(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{Clock: clk.Now})
	c.Set("k", []byte("v"), time.Minute)
	if _, ok := c.Get("k"); !ok {
		t.Fatal("fresh item missing")
	}
	clk.Advance(61 * time.Second)
	if _, ok := c.Get("k"); ok {
		t.Fatal("expired item still served")
	}
	if exp := c.Stats().Expirations; exp != 1 {
		t.Fatalf("Expirations = %d, want 1", exp)
	}
}

func TestDefaultTTL(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{Clock: clk.Now, DefaultTTL: time.Minute})
	c.Set("k", []byte("v"), 0)
	clk.Advance(59 * time.Second)
	if _, ok := c.Get("k"); !ok {
		t.Fatal("item expired before default TTL")
	}
	clk.Advance(2 * time.Second)
	if _, ok := c.Get("k"); ok {
		t.Fatal("item outlived default TTL")
	}
}

func TestTouchExtendsTTL(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{Clock: clk.Now})
	c.Set("k", []byte("v"), time.Minute)
	clk.Advance(50 * time.Second)
	if !c.Touch("k", time.Minute) {
		t.Fatal("Touch failed on fresh key")
	}
	clk.Advance(50 * time.Second)
	if _, ok := c.Get("k"); !ok {
		t.Fatal("touched item expired early")
	}
	if c.Touch("absent", time.Minute) {
		t.Fatal("Touch succeeded on absent key")
	}
}

func TestExpireSweep(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{Clock: clk.Now})
	for i := 0; i < 10; i++ {
		c.Set(fmt.Sprintf("short-%d", i), []byte("v"), time.Second)
	}
	for i := 0; i < 5; i++ {
		c.Set(fmt.Sprintf("long-%d", i), []byte("v"), time.Hour)
	}
	clk.Advance(2 * time.Second)
	if dropped := c.ExpireSweep(); dropped != 10 {
		t.Fatalf("ExpireSweep dropped %d, want 10", dropped)
	}
	if c.Len() != 5 {
		t.Fatalf("Len = %d after sweep, want 5", c.Len())
	}
}

func TestHooksTrackResidency(t *testing.T) {
	linked := map[string]int{}
	unlinked := map[string]int{}
	itemSize := int64(1+1) + itemOverhead
	clk := newFakeClock()
	c := New(Config{
		MaxBytes: 2 * itemSize,
		Clock:    clk.Now,
		OnLink:   func(k string) { linked[k]++ },
		OnUnlink: func(k string) { unlinked[k]++ },
		Shards:   1, // exact global LRU so "c evicts a" is deterministic
	})
	c.Set("a", []byte("1"), 0)
	c.Set("a", []byte("2"), 0) // overwrite: unlink + link
	c.Set("b", []byte("1"), 0)
	c.Set("c", []byte("1"), 0) // evicts a
	c.Delete("b")
	if linked["a"] != 2 || unlinked["a"] != 2 {
		t.Errorf("a: linked=%d unlinked=%d, want 2/2", linked["a"], unlinked["a"])
	}
	if linked["b"] != 1 || unlinked["b"] != 1 {
		t.Errorf("b: linked=%d unlinked=%d, want 1/1", linked["b"], unlinked["b"])
	}
	if linked["c"] != 1 || unlinked["c"] != 0 {
		t.Errorf("c: linked=%d unlinked=%d, want 1/0", linked["c"], unlinked["c"])
	}
	// Net residency from hooks must equal actual contents.
	for k, n := range linked {
		resident := n-unlinked[k] == 1
		if resident != c.Contains(k) {
			t.Errorf("hook residency for %q = %v, cache says %v", k, resident, c.Contains(k))
		}
	}
}

func TestFlushAllFiresUnlink(t *testing.T) {
	unlinked := 0
	c := New(Config{Clock: time.Now, OnUnlink: func(string) { unlinked++ }})
	for i := 0; i < 7; i++ {
		c.Set(fmt.Sprintf("k%d", i), []byte("v"), 0)
	}
	c.FlushAll()
	if unlinked != 7 {
		t.Fatalf("unlink fired %d times, want 7", unlinked)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("cache not empty after FlushAll: len=%d bytes=%d", c.Len(), c.Bytes())
	}
}

func TestKeysMRUOrder(t *testing.T) {
	c := New(Config{Clock: time.Now})
	c.Set("a", []byte("1"), 0)
	c.Set("b", []byte("1"), 0)
	c.Set("c", []byte("1"), 0)
	c.Get("a")
	got := c.Keys()
	want := []string{"a", "c", "b"}
	if len(got) != len(want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
}

func TestBytesAccounting(t *testing.T) {
	c := New(Config{Clock: time.Now})
	c.Set("key", make([]byte, 100), 0)
	want := int64(3+100) + itemOverhead
	if got := c.Bytes(); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
	c.Delete("key")
	if got := c.Bytes(); got != 0 {
		t.Fatalf("Bytes = %d after delete, want 0", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(Config{Clock: time.Now, MaxBytes: 1 << 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%512)
				switch i % 3 {
				case 0:
					c.Set(k, []byte("v"), 0)
				case 1:
					c.Get(k)
				default:
					c.Delete(k)
				}
			}
		}(g)
	}
	wg.Wait()
}

// Property: whatever the op sequence, hook-derived residency matches
// Contains, and Bytes never exceeds MaxBytes.
func TestQuickResidencyInvariant(t *testing.T) {
	prop := func(ops []uint8) bool {
		live := map[string]bool{}
		c := New(Config{
			Clock:    time.Now,
			MaxBytes: 16 * (itemOverhead + 8),
			OnLink:   func(k string) { live[k] = true },
			OnUnlink: func(k string) { delete(live, k) },
		})
		for _, op := range ops {
			k := fmt.Sprintf("key%d", op%64)
			if op < 170 {
				c.Set(k, []byte("v"), 0)
			} else {
				c.Delete(k)
			}
			if c.Bytes() > 16*(itemOverhead+8) {
				return false
			}
		}
		if len(live) != c.Len() {
			return false
		}
		for k := range live {
			if !c.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCacheSet(b *testing.B) {
	c := New(Config{Clock: time.Now, MaxBytes: 64 << 20})
	val := make([]byte, 1024)
	keys := make([]string, 8192)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-key-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Set(keys[i%len(keys)], val, 0)
	}
}

// A hit hands out the stored slice: no copy, no allocation, sharded or
// behind the single-mutex control.
func TestGetHitAllocs(t *testing.T) {
	for _, shards := range []int{0, 1} {
		c := New(Config{Clock: time.Now, Shards: shards})
		c.Set("page:1", make([]byte, 256), 0)
		if allocs := testing.AllocsPerRun(1000, func() { c.Get("page:1") }); allocs != 0 {
			t.Errorf("Shards=%d: Get hit allocates %.1f times per op, want 0", shards, allocs)
		}
	}
}

func BenchmarkCacheGetHit(b *testing.B) {
	c := New(Config{Clock: time.Now})
	val := make([]byte, 1024)
	keys := make([]string, 8192)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-key-%d", i)
		c.Set(keys[i], val, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(keys[i%len(keys)])
	}
}
