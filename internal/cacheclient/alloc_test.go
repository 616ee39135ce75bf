package cacheclient

import "testing"

// A GET hit over loopback costs the whole process two allocations: the
// value the caller keeps, and the key string the server's parser hands
// to its cache. Request encoding, the borrowed buffers and the
// byte-wise reply reader add none (the string-based reader took five
// more). A GetInto whose buffer holds the value drops the first, which
// leaves the server's key string. AllocsPerRun counts every goroutine,
// so the server's side of the hop is inside the fence too.
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

	buf := make([]byte, 8192)
	allocs = testing.AllocsPerRun(500, func() {
		v, ok, err := c.GetInto("alloc:page", buf)
		if err != nil || !ok || len(v) != 4096 || &v[0] != &buf[0] {
			t.Fatalf("GetInto: %d bytes, ok=%v, err=%v, in buf=%v", len(v), ok, err, len(v) > 0 && &v[0] == &buf[0])
		}
	})
	if allocs > 1 {
		t.Errorf("GetInto hit allocates %.0f objects/op across client and server, want <= 1", allocs)
	}
}
