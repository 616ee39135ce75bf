package cacheclient

import "testing"

// A GET hit over loopback costs the whole process two allocations: the
// value the caller keeps, and the key string the server's parser hands
// to its cache. Request encoding, the borrowed buffers and the
// byte-wise reply reader add none (the string-based reader took five
// more). AllocsPerRun counts every goroutine, so the server's side of
// the hop is inside the fence too.
func TestClientGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts, so the borrowed buffers are reallocated")
	}
	c := startServer(t)
	if err := c.Set("alloc:page", make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if v, ok, err := c.Get("alloc:page"); err != nil || !ok || len(v) != 4096 {
			t.Fatalf("Get: %d bytes, ok=%v, err=%v", len(v), ok, err)
		}
	})
	if allocs > 2 {
		t.Errorf("GET hit allocates %.0f objects/op across client and server, want <= 2", allocs)
	}
}
