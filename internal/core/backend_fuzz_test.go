package core

import "testing"

// FuzzRouteStability drives every placement backend with arbitrary
// keys, fleet sizes, prefixes, and ring seeds, and checks the routing
// contract the whole stack depends on:
//
//   - the owner is inside the active prefix;
//   - routing is a pure function: the same (key, seed, active) always
//     resolves to the same server;
//   - active counts past the provisioning order clamp to the full
//     order rather than inventing servers.
//
// The Table II baselines are driven too. Algorithm 1's fleet size is
// capped lower than the O(1) backends' because its construction is
// quadratic in the order length, and the consistent ring's because it
// holds n²/2 virtual nodes.
func FuzzRouteStability(f *testing.F) {
	f.Add("k001", uint16(40), uint16(3), uint64(0))
	f.Add("", uint16(1), uint16(1), uint64(1))
	f.Add("page/Main_Page", uint16(1023), uint16(600), uint64(0x9e3779b97f4a7c15))
	f.Add("\x00\xff\x80", uint16(64), uint16(64), uint64(7))
	f.Fuzz(func(t *testing.T, key string, n, active uint16, seed uint64) {
		for _, kind := range allKinds {
			max := 1024
			switch kind {
			case BackendProteus:
				max = 48
			case BackendConsistent:
				max = 128
			}
			servers := int(n)%max + 1
			act := int(active)%servers + 1
			b, err := NewBackend(kind, servers)
			if err != nil {
				t.Fatalf("NewBackend(%s, %d): %v", kind, servers, err)
			}
			o := b.LookupSeeded(key, seed, act)
			if o < 0 || o >= act {
				t.Fatalf("%s: owner %d outside active prefix %d (servers=%d)", kind, o, act, servers)
			}
			if again := b.LookupSeeded(key, seed, act); again != o {
				t.Fatalf("%s: routing is not deterministic: %d then %d", kind, o, again)
			}
			if seed == 0 && b.Lookup(key, act) != o {
				t.Fatalf("%s: seed-0 LookupSeeded disagrees with Lookup", kind)
			}
			if got, want := b.LookupSeeded(key, seed, servers+3), b.LookupSeeded(key, seed, servers); got != want {
				t.Fatalf("%s: active beyond the order routed to %d, clamp wants %d", kind, got, want)
			}
		}
	})
}
