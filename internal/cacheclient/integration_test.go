package cacheclient

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"proteus/internal/bloom"
	"proteus/internal/cacheserver"
)

// bootServer starts a real cache server on addr ("127.0.0.1:0" for any
// free port), its accepted connections wrapped by wrap when non-nil,
// and returns it with the address it listens on. It is closed, and its
// accept loop waited for, when the test ends.
func bootServer(tb testing.TB, addr string, wrap func(net.Conn) net.Conn) (*cacheserver.Server, string) {
	tb.Helper()
	srv, err := cacheserver.New(cacheserver.Config{
		Digest:   bloom.Params{Counters: 1 << 14, CounterBits: 4, Hashes: 4},
		WrapConn: wrap,
	})
	if err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	tb.Cleanup(func() {
		srv.Close()
		<-done
	})
	return srv, ln.Addr().String()
}

// startServer boots a real cache server for in-package client coverage.
func startServer(t *testing.T) *Client {
	t.Helper()
	_, addr := bootServer(t, "127.0.0.1:0", nil)
	c := New(addr, WithTimeout(2*time.Second), WithMaxConns(3))
	t.Cleanup(c.Close)
	return c
}

func TestClientFullSurface(t *testing.T) {
	c := startServer(t)

	// Storage commands.
	if err := c.Set("k", []byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	if stored, err := c.Add("k", []byte("nope"), 0); err != nil || stored {
		t.Fatalf("Add = %v,%v", stored, err)
	}
	if stored, err := c.Add("k2", []byte("v2"), 0); err != nil || !stored {
		t.Fatalf("Add = %v,%v", stored, err)
	}
	if stored, err := c.Replace("k", []byte("v1b"), 0); err != nil || !stored {
		t.Fatalf("Replace = %v,%v", stored, err)
	}
	if stored, err := c.Replace("ghost", []byte("x"), 0); err != nil || stored {
		t.Fatalf("Replace(ghost) = %v,%v", stored, err)
	}

	// Retrieval.
	v, ok, err := c.Get("k")
	if err != nil || !ok || string(v) != "v1b" {
		t.Fatalf("Get = %q,%v,%v", v, ok, err)
	}
	multi, err := c.MultiGet("k", "k2", "ghost")
	if err != nil || len(multi) != 2 {
		t.Fatalf("MultiGet = %v,%v", multi, err)
	}

	// CAS.
	cv, ok, err := c.Gets("k")
	if err != nil || !ok || cv.CAS == 0 {
		t.Fatalf("Gets = %+v,%v,%v", cv, ok, err)
	}
	if st, err := c.CompareAndSwap("k", []byte("v1c"), 0, cv.CAS); err != nil || st != CASStored {
		t.Fatalf("CAS = %v,%v", st, err)
	}
	if st, err := c.CompareAndSwap("k", []byte("v1d"), 0, cv.CAS); err != nil || st != CASExists {
		t.Fatalf("stale CAS = %v,%v", st, err)
	}

	// Arithmetic.
	if err := c.Set("n", []byte("5"), 0); err != nil {
		t.Fatal(err)
	}
	if v, found, err := c.Increment("n", 3); err != nil || !found || v != 8 {
		t.Fatalf("Increment = %d,%v,%v", v, found, err)
	}
	if v, found, err := c.Decrement("n", 10); err != nil || !found || v != 0 {
		t.Fatalf("Decrement = %d,%v,%v", v, found, err)
	}

	// Concatenation.
	if stored, err := c.Append("k2", []byte("!")); err != nil || !stored {
		t.Fatalf("Append = %v,%v", stored, err)
	}
	if stored, err := c.Prepend("k2", []byte("~")); err != nil || !stored {
		t.Fatalf("Prepend = %v,%v", stored, err)
	}
	v, _, _ = c.Get("k2")
	if string(v) != "~v2!" {
		t.Fatalf("k2 = %q", v)
	}

	// Touch / Delete.
	if touched, err := c.Touch("k", 3600); err != nil || !touched {
		t.Fatalf("Touch = %v,%v", touched, err)
	}
	if deleted, err := c.Delete("k"); err != nil || !deleted {
		t.Fatalf("Delete = %v,%v", deleted, err)
	}

	// Admin.
	stats, err := c.Stats()
	if err != nil || stats["cmd_set"] == "" {
		t.Fatalf("Stats = %v,%v", stats, err)
	}
	version, err := c.Version()
	if err != nil || !strings.HasPrefix(version, "VERSION") {
		t.Fatalf("Version = %q,%v", version, err)
	}

	// Digest.
	digest, err := c.FetchDigest()
	if err != nil {
		t.Fatal(err)
	}
	if !digest.Contains("k2") {
		t.Fatal("digest lost k2")
	}

	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get("k2"); ok {
		t.Fatal("k2 survived FlushAll")
	}
}

func TestClientLargeValue(t *testing.T) {
	c := startServer(t)
	big := bytes.Repeat([]byte{0xAB}, 1<<20)
	if err := c.Set("big", big, 0); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get("big")
	if err != nil || !ok || !bytes.Equal(v, big) {
		t.Fatalf("large value round trip failed: ok=%v err=%v len=%d", ok, err, len(v))
	}
	// A lent buffer too small for the value is left alone.
	buf := make([]byte, 16<<10)
	v, ok, err = c.GetInto("big", buf)
	if err != nil || !ok || !bytes.Equal(v, big) || !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatalf("GetInto with a small buffer: ok=%v err=%v len=%d", ok, err, len(v))
	}
}

func TestClientBadKeyRejectedLocally(t *testing.T) {
	c := startServer(t)
	if err := c.Set("bad key", []byte("v"), 0); err == nil {
		t.Fatal("key with space accepted")
	}
	if _, _, err := c.Get(""); err == nil {
		t.Fatal("empty key accepted")
	}
}

// The retry path: a server restart invalidates pooled connections; the
// next operation must transparently succeed on a fresh dial.
func TestClientRetriesStalePooledConn(t *testing.T) {
	srv, err := cacheserver.New(cacheserver.Config{
		Digest: bloom.Params{Counters: 1 << 12, CounterBits: 4, Hashes: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c := New(addr, WithMaxConns(1), WithTimeout(2*time.Second))
	defer c.Close()
	if err := c.Set("k", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}

	// Restart the server on the same port: the pooled conn is dead.
	srv.Close()
	<-done
	srv2, err := cacheserver.New(cacheserver.Config{
		Digest: bloom.Params{Counters: 1 << 12, CounterBits: 4, Hashes: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- srv2.Serve(ln2) }()
	t.Cleanup(func() {
		srv2.Close()
		<-done2
	})

	// Must succeed via the retry, not error.
	if err := c.Set("k2", []byte("v2"), 0); err != nil {
		t.Fatalf("Set after server restart: %v", err)
	}
	if _, ok, err := c.Get("k2"); err != nil || !ok {
		t.Fatalf("Get after restart: ok=%v err=%v", ok, err)
	}
}
