package core

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// backendKinds lists every selectable placement backend once, so the
// property tests below sweep all of them.
var backendKinds = [3]BackendKind{BackendProteus, BackendPCH, BackendJump}

// allKinds adds the Table II baselines: NewBackend builds them,
// ParseBackend rejects them, and they hold the shared route contract
// but not the balance or migration bounds (Consistent is also
// monotone; Modulo is not).
var allKinds = append(backendKinds[:], BackendModulo, BackendConsistent)

func sampleKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("bal-%05d", i)
	}
	return keys
}

func TestParseBackend(t *testing.T) {
	cases := []struct {
		in   string
		want BackendKind
	}{
		{"", BackendProteus},
		{"proteus", BackendProteus},
		{"pch", BackendPCH},
		{"jump", BackendJump},
	}
	for _, c := range cases {
		got, err := ParseBackend(c.in)
		if err != nil {
			t.Fatalf("ParseBackend(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseBackend(%q) = %s, want %s", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"rendezvous", "modulo", "consistent"} {
		if _, err := ParseBackend(bad); err == nil {
			t.Fatalf("ParseBackend accepted %q", bad)
		}
	}
	if got := BackendKind("").String(); got != "proteus" {
		t.Fatalf("zero BackendKind prints %q, want proteus", got)
	}
}

func TestNewBackendRejectsBadInput(t *testing.T) {
	if _, err := NewBackend("maglev", 4); err == nil {
		t.Fatal("NewBackend accepted an unknown kind")
	}
	for _, kind := range allKinds {
		if _, err := NewBackend(kind, 0); err == nil {
			t.Fatalf("NewBackend(%s, 0) accepted an empty fleet", kind)
		}
		b, err := NewBackend(kind, 7)
		if err != nil {
			t.Fatalf("NewBackend(%s, 7): %v", kind, err)
		}
		if b.Kind() != kind {
			t.Fatalf("backend reports kind %s, want %s", b.Kind(), kind)
		}
		if b.Servers() != 7 {
			t.Fatalf("%s backend reports %d servers, want 7", kind, b.Servers())
		}
	}
}

// TestBackendRouteContract checks the shared Lookup contract: owners
// sit inside the active prefix, active counts beyond the provisioning
// order clamp, active < 1 panics, and seed 0 agrees with the unseeded
// route. The Table II baselines hold it too.
func TestBackendRouteContract(t *testing.T) {
	keys := sampleKeys(512)
	for _, kind := range allKinds {
		b, err := NewBackend(kind, 24)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			for _, active := range []int{1, 2, 7, 24} {
				o := b.Lookup(k, active)
				if o < 0 || o >= active {
					t.Fatalf("%s: Lookup(%q, %d) = %d outside the active prefix", kind, k, active, o)
				}
				if got := b.LookupSeeded(k, 0, active); got != o {
					t.Fatalf("%s: seed-0 route %d differs from unseeded route %d", kind, got, o)
				}
			}
			if got, want := b.Lookup(k, 1000), b.Lookup(k, 24); got != want {
				t.Fatalf("%s: active=1000 should clamp to the full order: got %d, want %d", kind, got, want)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Lookup with active=0 did not panic", kind)
				}
			}()
			b.Lookup("k", 0)
		}()
	}
}

// TestBackendBalance samples the per-prefix load of every backend.
// Algorithm 1 is exactly balanced by construction; the O(1) backends
// are balanced in distribution, so their worst per-server relative
// deviation must stay within a binomial-noise envelope of the uniform
// share.
func TestBackendBalance(t *testing.T) {
	const samples = 20000
	keys := sampleKeys(samples)
	for _, kind := range backendKinds {
		n := 64
		if kind == BackendProteus {
			n = 24 // quadratic construction; exactness is proven elsewhere
		}
		b, err := NewBackend(kind, n)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, n)
		for active := 1; active <= n; active++ {
			for i := range counts[:active] {
				counts[i] = 0
			}
			for _, k := range keys {
				counts[b.Lookup(k, active)]++
			}
			limit := 6*math.Sqrt(float64(active)/samples) + 0.02
			for s := 0; s < active; s++ {
				rel := math.Abs(float64(counts[s])*float64(active)/samples - 1)
				if rel > limit {
					t.Fatalf("%s: server %d at active=%d holds a %.4f relative deviation from 1/n (limit %.4f)",
						kind, s, active, rel, limit)
				}
			}
		}
	}
}

// TestBackendMonotoneMinimality is the exact cross-backend migration
// property: growing the prefix n -> n+1 may move a key only onto the
// new server n, and shrinking may move only server n's keys. The sweep
// crosses several power-of-two boundaries, where the pch backend
// switches window levels. Random-vnode consistent hashing is monotone
// too: a deactivated server's keys fall through to the next active
// successor and no other key moves (Modulo is not; see
// TestModuloRemapsAlmostEverything).
func TestBackendMonotoneMinimality(t *testing.T) {
	keys := sampleKeys(2048)
	for _, kind := range append(backendKinds[:], BackendConsistent) {
		max := 300
		if kind == BackendProteus {
			max = 24
		}
		b, err := NewBackend(kind, max)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			prev := b.Lookup(k, 1)
			for active := 2; active <= max; active++ {
				cur := b.Lookup(k, active)
				if cur != prev && cur != active-1 {
					t.Fatalf("%s: growing %d -> %d moved %q from %d to %d, not onto the new server",
						kind, active-1, active, k, prev, cur)
				}
				prev = cur
			}
		}
	}
}

// TestBackendMigrationFraction quantifies how much moves on each
// n -> n+1 step. Algorithm 1 honours the rational bound exactly; the
// O(1) backends move a Binomial(S, 1/(n+1)) sample of keys, checked
// against the bound plus six standard deviations.
func TestBackendMigrationFraction(t *testing.T) {
	const samples = 20000
	keys := sampleKeys(samples)
	for _, kind := range backendKinds {
		if kind == BackendProteus {
			p, err := New(24)
			if err != nil {
				t.Fatal(err)
			}
			for n := 1; n < 24; n++ {
				bound := 1 / float64(n+1)
				if frac := p.MigratedFraction(n, n+1); frac > bound+1e-9 {
					t.Fatalf("proteus: MigratedFraction(%d, %d) = %v exceeds the %v bound", n, n+1, frac, bound)
				}
			}
			continue
		}
		b, err := NewBackend(kind, 192)
		if err != nil {
			t.Fatal(err)
		}
		prev := make([]int, samples)
		for i, k := range keys {
			prev[i] = b.Lookup(k, 1)
		}
		for to := 2; to <= 192; to++ {
			moved := 0
			for i, k := range keys {
				o := b.Lookup(k, to)
				if o != prev[i] {
					moved++
				}
				prev[i] = o
			}
			bound := 1 / float64(to)
			limit := bound + 6*math.Sqrt(bound/samples) + 0.002
			if frac := float64(moved) / samples; frac > limit {
				t.Fatalf("%s: step %d -> %d moved %.4f of keys (bound %.4f, limit %.4f)",
					kind, to-1, to, frac, bound, limit)
			}
		}
	}
}

// TestReplicatedBackendRings checks the seeded-rings construction that
// hot-key replication rides on: ring 0 is the bare backend, deeper
// rings are genuinely different permutations, and the distinct-owner
// resolution stays inside the active prefix for every backend.
func TestReplicatedBackendRings(t *testing.T) {
	keys := sampleKeys(2048)
	for _, kind := range backendKinds {
		rep, err := NewReplicatedBackend(kind, 16, 3)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Backend().Kind() != kind {
			t.Fatalf("replicated backend reports kind %s, want %s", rep.Backend().Kind(), kind)
		}
		if kind == BackendProteus && rep.Placement() == nil {
			t.Fatal("proteus replicated backend lost its Placement accessor")
		}
		if kind != BackendProteus && rep.Placement() != nil {
			t.Fatalf("%s replicated backend claims an explicit Placement", kind)
		}
		differs := 0
		for _, k := range keys {
			if got, want := rep.OwnerOnRing(k, 0, 16), rep.Backend().Lookup(k, 16); got != want {
				t.Fatalf("%s: ring-0 owner %d differs from bare backend route %d", kind, got, want)
			}
			if rep.OwnerOnRing(k, 1, 16) != rep.OwnerOnRing(k, 0, 16) {
				differs++
			}
			owners := rep.DistinctOwners(k, 16)
			for _, o := range owners {
				if o < 0 || o >= 16 {
					t.Fatalf("%s: distinct owner %d outside the active prefix", kind, o)
				}
			}
		}
		// Two independent uniform rings over 16 servers disagree with
		// probability 15/16; anything below half means the seeds are
		// not perturbing the geometry.
		if differs < len(keys)/2 {
			t.Fatalf("%s: ring 1 agrees with ring 0 on %d/%d keys — seeded rings are not independent",
				kind, len(keys)-differs, len(keys))
		}
	}
}

// fleetSizes are the sizes the routing benchmarks sweep: 16 is the
// paper-scale cluster, 128 a realistic pool, 1024 the scale where
// Algorithm 1's precomputed table and the consistent baseline's ring
// search stop being free — quadratic construction (~20 s) and a
// log-sized search, against the O(1) backends' constant construction
// and flat route cost.
var fleetSizes = [3]int{16, 128, 1024}

// slowToBuild reports the one sweep point too slow for a tier-1 test
// or a -short benchmark smoke.
func slowToBuild(kind BackendKind, n int) bool { return kind == BackendProteus && n > 128 }

// TestBackendRouteAllocs enforces the zero-allocation contract on every
// backend's route path, seeded and unseeded (the O(1) paths are also
// held to it statically by the hotalloc lint). Algorithm 1 at 1024 is
// the same range search over a longer table. The baselines route every
// request of their simulator scenarios, so they are held to it too.
func TestBackendRouteAllocs(t *testing.T) {
	for _, kind := range allKinds {
		for _, n := range fleetSizes {
			if slowToBuild(kind, n) {
				continue
			}
			b, err := NewBackend(kind, n)
			if err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(1000, func() {
				b.Lookup("page:31415", n)
				b.LookupSeeded("page:31415", 0x9e3779b97f4a7c15, n)
			}); allocs != 0 {
				t.Errorf("%s n=%d: route path allocates %.1f times per op, want 0", kind, n, allocs)
			}
		}
	}
}

// sweepBackends runs fn once per backend kind and fleet size.
func sweepBackends(b *testing.B, fn func(b *testing.B, kind BackendKind, n int)) {
	for _, kind := range allKinds {
		for _, n := range fleetSizes {
			b.Run(fmt.Sprintf("%s/n%d", kind, n), func(b *testing.B) {
				if testing.Short() && slowToBuild(kind, n) {
					b.Skip("Algorithm 1's table takes ~20 s to build at this size")
				}
				fn(b, kind, n)
			})
		}
	}
}

func BenchmarkBackendRoute(b *testing.B) {
	keys := sampleKeys(4096)
	sweepBackends(b, func(b *testing.B, kind BackendKind, n int) {
		backend, err := NewBackend(kind, n)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			routeSink += backend.Lookup(keys[i%len(keys)], n)
		}
	})
}

func BenchmarkBackendConstruct(b *testing.B) {
	sweepBackends(b, func(b *testing.B, kind BackendKind, n int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewBackend(kind, n); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestPCHRouteFlatAcrossFleetSize is the perf acceptance gate for the
// O(1) claim: routing against a 1024-server order must cost no more
// than 1.5x routing against 16 servers. Measured as the best of
// several trials so scheduler noise cannot fail the build; the ratio
// sits near 1.15 on an idle machine.
func TestPCHRouteFlatAcrossFleetSize(t *testing.T) {
	keys := sampleKeys(1024)
	measure := func(n int) time.Duration {
		b, err := NewPCH(n)
		if err != nil {
			t.Fatal(err)
		}
		const iters = 200000
		best := time.Duration(math.MaxInt64)
		for trial := 0; trial < 5; trial++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				routeSink += b.Lookup(keys[i%len(keys)], n)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	small, large := measure(16), measure(1024)
	if ratio := float64(large) / float64(small); ratio > 1.5 {
		t.Fatalf("pch route cost grows with fleet size: n=1024 is %.2fx n=16 (%v vs %v), want <= 1.5x",
			ratio, large, small)
	}
}

// routeSink defeats dead-code elimination in the timing loop above.
var routeSink int
