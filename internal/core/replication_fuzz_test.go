package core

import (
	"slices"
	"testing"
)

// FuzzReplicaResolution drives the replicated-ownership resolution path
// with arbitrary keys and geometries and checks the invariants every
// layer above leans on:
//
//   - every owner is inside the active prefix;
//   - the first distinct owner is the primary (unreplicated Lookup);
//   - DistinctOwners has no duplicates and matches DistinctOwnersN at
//     full depth;
//   - deeper resolutions extend shallower ones (prefix property), so
//     promoting a key never moves its existing copies;
//   - resolution is deterministic.
func FuzzReplicaResolution(f *testing.F) {
	f.Add("k001", uint8(5), uint8(3), uint8(2))
	f.Add("", uint8(1), uint8(1), uint8(1))
	f.Add("page/Main_Page", uint8(16), uint8(9), uint8(4))
	f.Add("\x00\xff\x80", uint8(64), uint8(64), uint8(8))
	f.Fuzz(func(t *testing.T, key string, n, active, r uint8) {
		servers := int(n)%64 + 1
		act := int(active)%servers + 1
		factor := int(r)%8 + 1
		rep, err := NewReplicated(servers, factor)
		if err != nil {
			t.Fatalf("NewReplicated(%d, %d): %v", servers, factor, err)
		}
		owners := rep.Owners(key, act)
		if len(owners) != factor {
			t.Fatalf("Owners returned %d entries, want %d", len(owners), factor)
		}
		for ring, o := range owners {
			if o < 0 || o >= act {
				t.Fatalf("ring %d owner %d outside active prefix %d", ring, o, act)
			}
			if got := rep.OwnerOnRing(key, ring, act); got != o {
				t.Fatalf("OwnerOnRing(%d) = %d, Owners[%d] = %d", ring, got, ring, o)
			}
		}
		if owners[0] != rep.Placement().Lookup(key, act) {
			t.Fatalf("ring-0 owner %d differs from unreplicated Lookup %d", owners[0], rep.Placement().Lookup(key, act))
		}

		distinct := rep.DistinctOwners(key, act)
		seen := make(map[int]bool, len(distinct))
		for _, o := range distinct {
			if seen[o] {
				t.Fatalf("DistinctOwners has duplicate %d: %v", o, distinct)
			}
			seen[o] = true
		}
		if len(distinct) < 1 || distinct[0] != owners[0] {
			t.Fatalf("DistinctOwners %v does not start with the primary %d", distinct, owners[0])
		}

		// Prefix property: DistinctOwnersN(k) is a prefix of
		// DistinctOwnersN(k+1) for every depth.
		prev := []int{}
		for rings := 1; rings <= factor; rings++ {
			cur := rep.DistinctOwnersN(nil, key, act, rings)
			if len(cur) < len(prev) {
				t.Fatalf("depth %d resolution shrank: %v -> %v", rings, prev, cur)
			}
			for i := range prev {
				if cur[i] != prev[i] {
					t.Fatalf("depth %d resolution reordered copies: %v -> %v", rings, prev, cur)
				}
			}
			// Appending keeps dst's prefix and dedups only what it adds:
			// a prefix entry equal to an owner does not hide it.
			dst := append(make([]int, 0, 8), cur[0])
			if got := rep.DistinctOwnersN(dst, key, act, rings); !slices.Equal(got, append([]int{cur[0]}, cur...)) {
				t.Fatalf("depth %d appended to [%d]: %v, want [%d] + %v", rings, cur[0], got, cur[0], cur)
			}
			prev = cur
		}
		full := rep.DistinctOwnersN(nil, key, act, factor)
		if len(full) != len(distinct) {
			t.Fatalf("full-depth DistinctOwnersN %v != DistinctOwners %v", full, distinct)
		}
		for i := range full {
			if full[i] != distinct[i] {
				t.Fatalf("full-depth DistinctOwnersN %v != DistinctOwners %v", full, distinct)
			}
		}

		again := rep.DistinctOwners(key, act)
		if len(again) != len(distinct) {
			t.Fatal("resolution not deterministic")
		}
		for i := range again {
			if again[i] != distinct[i] {
				t.Fatal("resolution not deterministic")
			}
		}
	})
}
