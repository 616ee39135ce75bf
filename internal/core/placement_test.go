package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// projection rounding can shift each boundary by at most one ring unit;
// with O(N^2) boundaries the per-server span error is bounded by N^2.
func spanTolerance(n int) uint64 { return uint64(n * n) }

func TestNewRejectsBadSizes(t *testing.T) {
	for _, n := range []int{-1, 0} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d): want error, got nil", n)
		}
	}
	if _, err := New(MaxServers + 1); err == nil {
		t.Errorf("New(%d): want ErrTooManyServers", MaxServers+1)
	}
}

func TestSingleServerOwnsEverything(t *testing.T) {
	p, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.NumVirtualNodes(); got != 1 {
		t.Fatalf("NumVirtualNodes = %d, want 1", got)
	}
	for _, pt := range []uint64{0, 1, RingSize / 2, RingSize - 1} {
		if owner := p.Owner(pt, 1); owner != 0 {
			t.Errorf("Owner(%d, 1) = %d, want 0", pt, owner)
		}
	}
}

func TestVirtualNodeCountMeetsTheorem1(t *testing.T) {
	for n := 1; n <= 48; n++ {
		p, err := New(n)
		if err != nil {
			t.Fatalf("New(%d): %v", n, err)
		}
		want := VirtualNodeLowerBound(n)
		if got := p.NumVirtualNodes(); got != want {
			t.Errorf("N=%d: NumVirtualNodes = %d, want %d (Theorem 1)", n, got, want)
		}
	}
}

func TestRangesPartitionRing(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 40} {
		p, err := New(n)
		if err != nil {
			t.Fatalf("New(%d): %v", n, err)
		}
		ranges := p.Ranges()
		if ranges[0].Start != 0 {
			t.Fatalf("N=%d: first range starts at %d, want 0", n, ranges[0].Start)
		}
		var total uint64
		for i, r := range ranges {
			if r.Length == 0 {
				t.Errorf("N=%d: range %d has zero length", n, i)
			}
			if i > 0 && ranges[i-1].Start+ranges[i-1].Length != r.Start {
				t.Errorf("N=%d: gap/overlap between range %d and %d", n, i-1, i)
			}
			total += r.Length
		}
		if total != RingSize {
			t.Errorf("N=%d: ranges cover %d, want %d", n, total, RingSize)
		}
	}
}

func TestChainsStrictlyIncreasingFromZero(t *testing.T) {
	p, err := New(24)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range p.Ranges() {
		if r.Chain[0] != 0 {
			t.Fatalf("range %d chain starts with %d, want 0", i, r.Chain[0])
		}
		for k := 1; k < len(r.Chain); k++ {
			if r.Chain[k] <= r.Chain[k-1] {
				t.Fatalf("range %d chain not strictly increasing: %v", i, r.Chain)
			}
		}
	}
}

// The Balance Condition: at every active-prefix size n, every active
// server owns RingSize/n of the key space (up to projection rounding).
func TestBalanceConditionAllPrefixes(t *testing.T) {
	const n = 40 // the paper's whole testbed size
	p, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	for active := 1; active <= n; active++ {
		want := RingSize / uint64(active)
		for s := 0; s < active; s++ {
			got := p.OwnedSpan(s, active)
			if diff(got, want) > spanTolerance(n) {
				t.Errorf("active=%d server=%d: span=%d want≈%d", active, s, got, want)
			}
		}
		// Servers beyond the prefix own nothing.
		for s := active; s < n; s++ {
			if got := p.OwnedSpan(s, active); got != 0 {
				t.Errorf("active=%d inactive server=%d owns %d", active, s, got)
			}
		}
	}
}

func diff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// Minimality: a step n -> n+1 moves exactly 1/(n+1) of the ring, and the
// moved spans all go to the newly activated server.
func TestMigrationStepMinimal(t *testing.T) {
	const n = 32
	p, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	for active := 1; active < n; active++ {
		moves := p.Migrations(active, active+1)
		var total uint64
		for _, m := range moves {
			if m.To != active {
				t.Errorf("step %d->%d: span moves to %d, want new server %d", active, active+1, m.To, active)
			}
			if m.From >= active {
				t.Errorf("step %d->%d: span moves from inactive server %d", active, active+1, m.From)
			}
			total += m.Length
		}
		want := RingSize / uint64(active+1)
		if diff(total, want) > spanTolerance(n) {
			t.Errorf("step %d->%d: moved %d, want≈%d", active, active+1, total, want)
		}
	}
}

// The generalized bound: n1 -> n2 moves (n2-n1)/n2 of the ring.
func TestMigrationArbitraryJump(t *testing.T) {
	const n = 24
	p, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range [][2]int{{1, 24}, {4, 9}, {10, 3}, {24, 1}, {7, 8}, {12, 12}} {
		n1, n2 := step[0], step[1]
		got := p.MigratedFraction(n1, n2)
		hi := n1
		if n2 > hi {
			hi = n2
		}
		want := math.Abs(float64(n2-n1)) / float64(hi)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("MigratedFraction(%d,%d) = %g, want %g", n1, n2, got, want)
		}
	}
}

// When a server is turned off, its load spreads over all remaining
// servers in equal shares (Balance Condition, off direction).
func TestTurnOffSpreadsEvenly(t *testing.T) {
	const n = 16
	p, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	for active := n; active >= 3; active-- {
		received := make(map[int]uint64)
		for _, m := range p.Migrations(active, active-1) {
			if m.From != active-1 {
				t.Fatalf("%d->%d: movement from %d, want only from the dying server %d",
					active, active-1, m.From, active-1)
			}
			received[m.To] += m.Length
		}
		if len(received) != active-1 {
			t.Fatalf("%d->%d: %d receivers, want %d", active, active-1, len(received), active-1)
		}
		want := RingSize / uint64(active) / uint64(active-1)
		for to, span := range received {
			if diff(span, want) > spanTolerance(n) {
				t.Errorf("%d->%d: server %d received %d, want≈%d", active, active-1, to, span, want)
			}
		}
	}
}

// Prefix consistency: the placement built for N servers, queried at
// active=n, must agree with the placement built for n servers. This is
// what lets web servers precompute one table for the whole order.
func TestPrefixConsistency(t *testing.T) {
	full, err := New(12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 12; n++ {
		sub, err := New(n)
		if err != nil {
			t.Fatalf("New(%d): %v", n, err)
		}
		for trial := 0; trial < 2000; trial++ {
			pt := rng.Uint64() & (RingSize - 1)
			if a, b := full.Owner(pt, n), sub.Owner(pt, n); a != b {
				t.Fatalf("point %d at active=%d: full says %d, sub says %d", pt, n, a, b)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := New(20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(20)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Ranges(), b.Ranges()
	if len(ra) != len(rb) {
		t.Fatalf("different range counts: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Start != rb[i].Start || ra[i].Length != rb[i].Length {
			t.Fatalf("range %d differs: %+v vs %+v", i, ra[i], rb[i])
		}
	}
}

func TestLookupRoutesKeysUniformly(t *testing.T) {
	const n, keys = 10, 200000
	p, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	buf := make([]byte, 0, 16)
	for i := 0; i < keys; i++ {
		buf = appendKey(buf[:0], i)
		counts[p.Lookup(string(buf), n)]++
	}
	want := float64(keys) / float64(n)
	for s, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("server %d got %d keys, want %g ±5%%", s, c, want)
		}
	}
}

func appendKey(buf []byte, i int) []byte {
	buf = append(buf, "key-"...)
	if i == 0 {
		return append(buf, '0')
	}
	var digits [20]byte
	k := len(digits)
	for i > 0 {
		k--
		digits[k] = byte('0' + i%10)
		i /= 10
	}
	return append(buf, digits[k:]...)
}

// Property: for any point and prefix size, the owner is active, and
// growing the prefix by one either keeps the owner or hands the point to
// exactly the newly activated server.
func TestQuickOwnerTransitions(t *testing.T) {
	p, err := New(17)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(rawPoint uint64, rawActive uint8) bool {
		pt := rawPoint & (RingSize - 1)
		active := int(rawActive)%16 + 1 // 1..16 so active+1 is valid
		owner := p.Owner(pt, active)
		if owner < 0 || owner >= active {
			return false
		}
		next := p.Owner(pt, active+1)
		return next == owner || next == active
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: shrinking the prefix never routes to a dead server and only
// re-routes points that belonged to the dying server.
func TestQuickOwnerShrink(t *testing.T) {
	p, err := New(17)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(rawPoint uint64, rawActive uint8) bool {
		pt := rawPoint & (RingSize - 1)
		active := int(rawActive)%15 + 2 // 2..16
		before := p.Owner(pt, active)
		after := p.Owner(pt, active-1)
		if after >= active-1 {
			return false
		}
		if before != active-1 && after != before {
			return false // point moved although its server stayed up
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestOwnerPanicsOnZeroActive(t *testing.T) {
	p, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Owner(pt, 0) did not panic")
		}
	}()
	p.Owner(1, 0)
}

func TestOwnerClampsActiveAboveN(t *testing.T) {
	p, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	for pt := uint64(0); pt < RingSize; pt += RingSize / 64 {
		if a, b := p.Owner(pt, 5), p.Owner(pt, 50); a != b {
			t.Fatalf("point %d: active=5 gives %d, active=50 gives %d", pt, a, b)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	p, err := New(40)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Owner(uint64(i)*0x9e3779b97f4a7c15&(RingSize-1), 25)
	}
}
