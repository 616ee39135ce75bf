package core

import (
	"math"
	"testing"
	"testing/quick"
)

// loadRatio replays keys through a backend and returns min/max
// per-server request counts — the paper's Fig. 5 metric.
func loadRatio(b Backend, active int, keys []string) float64 {
	counts := make([]int, active)
	for _, k := range keys {
		counts[b.Lookup(k, active)]++
	}
	lo, hi := counts[0], counts[0]
	for _, c := range counts[1:] {
		lo, hi = min(lo, c), max(hi, c)
	}
	if hi == 0 {
		return 1
	}
	return float64(lo) / float64(hi)
}

// worstRatio is loadRatio's minimum over the active prefixes 2..n.
func worstRatio(b Backend, n int, keys []string) float64 {
	worst := 1.0
	for active := 2; active <= n; active++ {
		worst = min(worst, loadRatio(b, active, keys))
	}
	return worst
}

func mustBackend(t *testing.T, kind BackendKind, n int) Backend {
	t.Helper()
	b, err := NewBackend(kind, n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestModuloBalanced(t *testing.T) {
	keys := sampleKeys(100000)
	m := mustBackend(t, BackendModulo, 10)
	for _, active := range []int{1, 3, 10} {
		if ratio := loadRatio(m, active, keys); ratio < 0.93 {
			t.Errorf("modulo load ratio at n=%d: %.3f, want >= 0.93", active, ratio)
		}
	}
}

// Modulo is the one backend that is not monotone: growing 10 -> 11
// remaps the paper's n/(n+1) of the keys, almost all of them onto old
// servers.
func TestModuloRemapsAlmostEverything(t *testing.T) {
	keys := sampleKeys(50000)
	m := mustBackend(t, BackendModulo, 11)
	const n = 10
	moved := 0
	for _, k := range keys {
		if m.Lookup(k, n) != m.Lookup(k, n+1) {
			moved++
		}
	}
	frac := float64(moved) / float64(len(keys))
	if want := float64(n) / float64(n+1); math.Abs(frac-want) > 0.02 {
		t.Errorf("modulo remap fraction %.3f, want ≈%.3f", frac, want)
	}
}

func TestConsistentValidation(t *testing.T) {
	if _, err := NewConsistent(0, 4); err == nil {
		t.Error("NewConsistent(0,4) accepted")
	}
	if _, err := NewConsistent(4, 0); err == nil {
		t.Error("NewConsistent(4,0) accepted")
	}
}

func TestConsistentNodeCounts(t *testing.T) {
	c, err := NewConsistentLogN(10)
	if err != nil {
		t.Fatal(err)
	}
	perServer := c.NumVirtualNodes() / c.Servers()
	if perServer < 3 || perServer > 4 {
		t.Errorf("logN density: %d per server, want ~log2(11)", perServer)
	}
	c, err = NewConsistentHalfSquare(10)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.NumVirtualNodes(); got != 50 {
		t.Errorf("half-square total nodes = %d, want 50", got)
	}
	if got := mustBackend(t, BackendConsistent, 10).(*Consistent).NumVirtualNodes(); got != 50 {
		t.Errorf("the consistent kind builds %d nodes for 10 servers, want the n²/2 ring's 50", got)
	}
}

func TestConsistentDeterministicAcrossInstances(t *testing.T) {
	a, err := NewConsistent(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewConsistent(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range sampleKeys(5000) {
		if a.Lookup(k, 5) != b.Lookup(k, 5) {
			t.Fatalf("two rings with the shared seed disagree on %q", k)
		}
	}
}

func TestConsistentRoutesOnlyActive(t *testing.T) {
	c, err := NewConsistent(10, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, active := range []int{1, 2, 5, 10} {
		for _, k := range sampleKeys(2000) {
			if s := c.Lookup(k, active); s < 0 || s >= active {
				t.Fatalf("Lookup(%q, %d) = %d", k, active, s)
			}
		}
	}
}

// Consistent hashing's minimal-disruption property: shrinking the active
// set only remaps keys that were on the removed server.
func TestConsistentMinimalDisruption(t *testing.T) {
	c, err := NewConsistent(10, 16)
	if err != nil {
		t.Fatal(err)
	}
	keys := sampleKeys(20000)
	for active := 10; active > 1; active-- {
		for _, k := range keys {
			before := c.Lookup(k, active)
			after := c.Lookup(k, active-1)
			if before != active-1 && after != before {
				t.Fatalf("key %q moved from %d to %d when server %d shut down",
					k, before, after, active-1)
			}
		}
	}
}

// The Consistent baseline routes every simulated request of its
// scenario; the ring search must not allocate at any size.
func TestConsistentRouteAllocs(t *testing.T) {
	for _, n := range fleetSizes {
		c, err := NewConsistentLogN(n)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(1000, func() { c.Lookup("page:31415", n) }); allocs != 0 {
			t.Errorf("n=%d: Lookup allocates %.1f times per op, want 0", n, allocs)
		}
	}
}

// Property: the baseline backends and Proteus return in-range servers
// for any key and active count.
func TestQuickRoutersInRange(t *testing.T) {
	c, err := NewConsistent(12, 8)
	if err != nil {
		t.Fatal(err)
	}
	routers := []Backend{mustBackend(t, BackendModulo, 12), c, mustBackend(t, BackendProteus, 12)}
	prop := func(key string, rawActive uint8) bool {
		active := int(rawActive)%12 + 1
		for _, r := range routers {
			if s := r.Lookup(key, active); s < 0 || s >= active {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// The paper's Fig. 5 claim: random virtual node placement balances
// noticeably worse than Proteus's deterministic placement.
func TestConsistentImbalanceVsProteus(t *testing.T) {
	const n = 10
	keys := sampleKeys(200000)
	logN, err := NewConsistentLogN(n)
	if err != nil {
		t.Fatal(err)
	}
	worstLogN := worstRatio(logN, n, keys)
	worstProteus := worstRatio(mustBackend(t, BackendProteus, n), n, keys)
	if worstProteus < 0.9 {
		t.Errorf("Proteus worst-case load ratio %.3f, want >= 0.9", worstProteus)
	}
	if worstLogN >= worstProteus {
		t.Errorf("random consistent hashing (%.3f) should balance worse than Proteus (%.3f)",
			worstLogN, worstProteus)
	}
}

// Jump and the Proteus placement solve the same problem: compare their
// worst-case balance over active prefixes. Both should be far above
// random-vnode consistent hashing.
func TestJumpComparableToProteusBalance(t *testing.T) {
	keys := sampleKeys(200000)
	jumpWorst := worstRatio(mustBackend(t, BackendJump, 10), 10, keys)
	proteusWorst := worstRatio(mustBackend(t, BackendProteus, 10), 10, keys)
	if jumpWorst < 0.9 || proteusWorst < 0.9 {
		t.Errorf("worst ratios: jump=%.3f proteus=%.3f; both should be >= 0.9", jumpWorst, proteusWorst)
	}
	if math.Abs(jumpWorst-proteusWorst) > 0.08 {
		t.Errorf("jump (%.3f) and proteus (%.3f) should balance comparably", jumpWorst, proteusWorst)
	}
}
