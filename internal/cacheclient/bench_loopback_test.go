package cacheclient

import (
	"fmt"
	"testing"
	"time"
)

// Loopback round-trip benchmarks: the pipelined MultiGet pays one
// write+flush and N streamed reads per batch, so fetching 16 keys
// should cost far less than 16 serial Get round trips. Run both to see
// the ratio on the current host:
//
//	go test -run '^$' -bench 'Loopback' -benchmem ./internal/cacheclient
func benchClient(b *testing.B, nkeys, valueSize int) (*Client, []string) {
	b.Helper()
	srv, addr := bootServer(b, "127.0.0.1:0", nil)
	keys := make([]string, nkeys)
	value := make([]byte, valueSize)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench:%d", i)
		srv.Cache().Set(keys[i], value, 0)
	}
	c := New(addr, WithTimeout(2*time.Second))
	b.Cleanup(c.Close)
	return c, keys
}

func BenchmarkGetLoopback(b *testing.B) {
	c, keys := benchClient(b, 16, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := c.Get(keys[i%len(keys)]); err != nil || !ok {
			b.Fatalf("Get = %v, %v", ok, err)
		}
	}
}

// The size sweep across bufio's old 4 KiB default (EXPERIMENTS.md A9):
// a paper-sized page must cost what a 256 B value costs plus its copy,
// not an extra write on the server and an extra read on the client.
func BenchmarkGetLoopbackSizes(b *testing.B) {
	for _, size := range []int{256, 2048, 4000, 4200, 6143, 8300, 16000, 33000, 70000} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			c, keys := benchClient(b, 16, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, err := c.Get(keys[i%len(keys)]); err != nil || !ok {
					b.Fatalf("Get = %v, %v", ok, err)
				}
			}
		})
	}
}

func BenchmarkSetLoopback4K(b *testing.B) {
	c, keys := benchClient(b, 16, 4096)
	value := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Set(keys[i%len(keys)], value, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiGet8Loopback4K(b *testing.B) {
	c, keys := benchClient(b, 8, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := c.MultiGet(keys...)
		if err != nil || len(m) != len(keys) {
			b.Fatalf("MultiGet = %d keys, %v", len(m), err)
		}
	}
}

// Serial control for MultiGet16: the same 16 keys, one round trip each.
func BenchmarkGet16SerialLoopback(b *testing.B) {
	c, keys := benchClient(b, 16, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			if _, ok, err := c.Get(k); err != nil || !ok {
				b.Fatalf("Get = %v, %v", ok, err)
			}
		}
	}
}

func BenchmarkMultiGet16Loopback(b *testing.B) {
	c, keys := benchClient(b, 16, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := c.MultiGet(keys...)
		if err != nil || len(m) != len(keys) {
			b.Fatalf("MultiGet = %d keys, %v", len(m), err)
		}
	}
}
