package hashring

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"proteus/internal/core"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("key-%d", i)
	}
	return out
}

// loadRatio replays keys through a router and returns min/max per-server
// request counts — the paper's Fig. 5 metric.
func loadRatio(r Router, active int, ks []string) float64 {
	counts := make([]int, active)
	for _, k := range ks {
		counts[r.Route(k, active)]++
	}
	lo, hi := counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if hi == 0 {
		return 1
	}
	return float64(lo) / float64(hi)
}

func TestNaiveBalanced(t *testing.T) {
	ks := keys(100000)
	for _, active := range []int{1, 3, 10} {
		if ratio := loadRatio(Naive{}, active, ks); ratio < 0.93 {
			t.Errorf("naive load ratio at n=%d: %.3f, want >= 0.93", active, ratio)
		}
	}
}

func TestNaiveRemapsAlmostEverything(t *testing.T) {
	ks := keys(50000)
	n := 10
	moved := 0
	for _, k := range ks {
		if (Naive{}).Route(k, n) != (Naive{}).Route(k, n+1) {
			moved++
		}
	}
	frac := float64(moved) / float64(len(ks))
	want := float64(n) / float64(n+1) // the paper's n/(n+1) disruption
	if math.Abs(frac-want) > 0.02 {
		t.Errorf("naive remap fraction %.3f, want ≈%.3f", frac, want)
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
}

func TestConsistentRoutesOnlyActive(t *testing.T) {
	c, err := NewConsistent(10, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, active := range []int{1, 2, 5, 10} {
		for _, k := range keys(2000) {
			if s := c.Route(k, active); s < 0 || s >= active {
				t.Fatalf("Route(%q, %d) = %d", k, active, s)
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
	ks := keys(20000)
	for active := 10; active > 1; active-- {
		for _, k := range ks {
			before := c.Route(k, active)
			after := c.Route(k, active-1)
			if before != active-1 && after != before {
				t.Fatalf("key %q moved from %d to %d when server %d shut down",
					k, before, after, active-1)
			}
		}
	}
}

// The paper's Fig. 5 claim: random virtual node placement balances
// noticeably worse than Proteus's deterministic placement.
func TestConsistentImbalanceVsProteus(t *testing.T) {
	const n = 10
	ks := keys(200000)

	logN, err := NewConsistentLogN(n)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(n)
	if err != nil {
		t.Fatal(err)
	}
	proteus := Adapter{Placement: p}

	worstLogN, worstProteus := 1.0, 1.0
	for active := 2; active <= n; active++ {
		if r := loadRatio(logN, active, ks); r < worstLogN {
			worstLogN = r
		}
		if r := loadRatio(proteus, active, ks); r < worstProteus {
			worstProteus = r
		}
	}
	if worstProteus < 0.9 {
		t.Errorf("Proteus worst-case load ratio %.3f, want >= 0.9", worstProteus)
	}
	if worstLogN >= worstProteus {
		t.Errorf("random consistent hashing (%.3f) should balance worse than Proteus (%.3f)",
			worstLogN, worstProteus)
	}
}

func TestAdapterMatchesPlacement(t *testing.T) {
	p, err := core.New(6)
	if err != nil {
		t.Fatal(err)
	}
	a := Adapter{Placement: p}
	for _, k := range keys(1000) {
		for active := 1; active <= 6; active++ {
			if a.Route(k, active) != p.Lookup(k, active) {
				t.Fatalf("adapter diverges from placement for %q at %d", k, active)
			}
		}
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	a, err := NewConsistent(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewConsistent(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(5000) {
		if a.Route(k, 5) != b.Route(k, 5) {
			t.Fatalf("two rings with the shared seed disagree on %q", k)
		}
	}
}

// Property: all routers return in-range servers for any key/active.
func TestQuickRoutersInRange(t *testing.T) {
	c, err := NewConsistent(12, 8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(12)
	if err != nil {
		t.Fatal(err)
	}
	routers := []Router{Naive{}, c, Adapter{Placement: p}}
	prop := func(key string, rawActive uint8) bool {
		active := int(rawActive)%12 + 1
		for _, r := range routers {
			if s := r.Route(key, active); s < 0 || s >= active {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkNaiveRoute(b *testing.B) {
	ks := keys(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Naive{}.Route(ks[i%len(ks)], 10)
	}
}

// fleetSizes are the sizes the routing benchmarks sweep, here and in
// core: 16 is the paper-scale cluster, 128 a realistic pool, 1024 the
// scale where a log-sized ring search and Algorithm 1's quadratic
// table stop being free next to the O(1) backends.
var fleetSizes = [3]int{16, 128, 1024}

// The Consistent baseline routes every simulated request of its
// scenario; the ring search must not allocate at any size.
func TestConsistentRouteAllocs(t *testing.T) {
	for _, n := range fleetSizes {
		c, err := NewConsistentLogN(n)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(1000, func() { c.Route("page:31415", n) }); allocs != 0 {
			t.Errorf("n=%d: Route allocates %.1f times per op, want 0", n, allocs)
		}
	}
}

func BenchmarkConsistentRoute(b *testing.B) {
	ks := keys(4096)
	for _, n := range fleetSizes {
		c, err := NewConsistentLogN(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Route(ks[i%len(ks)], n)
			}
		})
	}
}

// newTestPlacement builds a core placement for comparison tests.
func newTestPlacement(t *testing.T, n int) *core.Placement {
	t.Helper()
	p, err := core.New(n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
