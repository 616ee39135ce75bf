package core

import (
	"math"
	"testing"
)

func TestReplicatedFirstRingMatchesLookup(t *testing.T) {
	r, err := NewReplicated(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := r.Placement()
	for i := 0; i < 500; i++ {
		key := string(appendKey(nil, i))
		owners := r.Owners(key, 8)
		if owners[0] != p.Lookup(key, 8) {
			t.Fatalf("key %q: ring 0 owner %d != Lookup %d", key, owners[0], p.Lookup(key, 8))
		}
	}
}

func TestReplicatedOwnersActive(t *testing.T) {
	r, err := NewReplicated(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	for active := 1; active <= 10; active++ {
		for i := 0; i < 200; i++ {
			key := string(appendKey(nil, i))
			for ring, o := range r.Owners(key, active) {
				if o < 0 || o >= active {
					t.Fatalf("key %q ring %d active=%d: owner %d out of range", key, ring, active, o)
				}
			}
		}
	}
}

func TestDistinctOwnersDeduplicates(t *testing.T) {
	r, err := NewReplicated(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// With only 2 servers and 3 rings, duplicates are guaranteed.
	for i := 0; i < 100; i++ {
		key := string(appendKey(nil, i))
		d := r.DistinctOwners(key, 2)
		if len(d) > 2 {
			t.Fatalf("key %q: %d distinct owners with 2 servers", key, len(d))
		}
		seen := map[int]bool{}
		for _, o := range d {
			if seen[o] {
				t.Fatalf("key %q: DistinctOwners returned duplicate %d", key, o)
			}
			seen[o] = true
		}
	}
}

func TestNoConflictProbabilityEq3(t *testing.T) {
	cases := []struct {
		r, n int
		want float64
	}{
		{1, 10, 1},
		{2, 10, 0.9},
		{3, 10, 0.9 * 0.8},
		{2, 1000, 999.0 / 1000},
		{3, 4096, (4095.0 / 4096) * (4094.0 / 4096)},
		{4, 3, 0}, // more replicas than servers: conflict certain
	}
	for _, c := range cases {
		if got := NoConflictProbability(c.r, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NoConflictProbability(%d,%d) = %g, want %g", c.r, c.n, got, c.want)
		}
	}
}

// Empirical check of Eq. 3: measured no-conflict frequency across many
// keys should be close to the closed form.
func TestNoConflictProbabilityEmpirical(t *testing.T) {
	const n, r, keys = 10, 2, 20000
	rep, err := NewReplicated(n, r)
	if err != nil {
		t.Fatal(err)
	}
	noConflict := 0
	for i := 0; i < keys; i++ {
		key := string(appendKey(nil, i))
		if len(rep.DistinctOwners(key, n)) == r {
			noConflict++
		}
	}
	got := float64(noConflict) / keys
	want := NoConflictProbability(r, n)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("empirical no-conflict %g, Eq.3 predicts %g", got, want)
	}
}

func TestPointSeededDiffersFromPoint(t *testing.T) {
	same := 0
	for i := 0; i < 1000; i++ {
		key := string(appendKey(nil, i))
		if Point(key) == PointSeeded(key, 12345) {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/1000 keys hash identically under different seeds", same)
	}
}

// Every read resolves its ring-0 owner through the replicated resolver
// (webtier, the DES request path); that must not allocate. Resolving a
// promoted key's distinct owners returns a slice and is charged one.
func TestReplicatedOwnerOnRingAllocs(t *testing.T) {
	r, err := NewReplicated(48, 2)
	if err != nil {
		t.Fatal(err)
	}
	for ring := 0; ring < r.Replicas(); ring++ {
		if allocs := testing.AllocsPerRun(1000, func() { r.OwnerOnRing("page:31415", ring, 48) }); allocs != 0 {
			t.Errorf("ring %d: OwnerOnRing allocates %.1f times per op, want 0", ring, allocs)
		}
	}
}

// BenchmarkReplicatedOwners prices the two routing decisions of the
// hot-key layer: a cold key's single ring-0 owner, and a promoted key's
// distinct owners at depth 2.
func BenchmarkReplicatedOwners(b *testing.B) {
	r, err := NewReplicated(48, 2)
	if err != nil {
		b.Fatal(err)
	}
	keys := sampleKeys(4096)
	b.Run("OwnerOnRing", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			routeSink += r.OwnerOnRing(keys[i%len(keys)], 0, 48)
		}
	})
	b.Run("DistinctOwnersN", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			routeSink += len(r.DistinctOwnersN(nil, keys[i%len(keys)], 48, 2))
		}
	})
}
