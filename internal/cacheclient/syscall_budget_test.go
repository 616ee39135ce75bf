package cacheclient

import (
	"bytes"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"proteus/internal/cacheserver"
	"proteus/internal/faultinject"
	"proteus/internal/memproto"
)

// ioCount counts the Read and Write calls one side of the hop makes on
// its sockets. On a TCP connection each is one system call, so the
// counts are the syscall budget of DESIGN.md §8 — exact, and the same
// on every machine, unlike the microseconds they cost.
type ioCount struct{ reads, writes atomic.Int64 }

func (c *ioCount) take() (reads, writes int64) {
	return c.reads.Swap(0), c.writes.Swap(0)
}

type countingConn struct {
	net.Conn
	n *ioCount
}

// Read counts a call when it returns data: the server's read for the
// next request is already parked while the client consumes this reply,
// and belongs to the exchange whose bytes it returns.
func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.n.reads.Add(1)
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.n.writes.Add(1)
	return c.Conn.Write(p)
}

// hop starts a cache server and a one-connection client on loopback
// TCP, each side's sockets wrapped by wrap.
func hop(t *testing.T, wrapClient, wrapServer func(net.Conn) net.Conn) (*Client, *cacheserver.Server) {
	t.Helper()
	srv, addr := bootServer(t, "127.0.0.1:0", wrapServer)
	c := New(addr, WithMaxConns(1), WithTimeout(5*time.Second),
		WithDialer(func(addr string, timeout time.Duration) (net.Conn, error) {
			nc, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			return wrapClient(nc), nil
		}))
	t.Cleanup(c.Close)
	return c, srv
}

// page is a value whose bytes depend on its size and position, so a
// reassembly that drops, repeats or reorders a piece cannot pass.
func page(size, salt int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i*31 + size + salt)
	}
	return b
}

func budgetKeys(size int) []string {
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("budget:%d:%d", size, i)
	}
	return keys
}

// TestSyscallBudget pins the cost of one exchange in socket calls per
// side: exactly one write and one read while the message fits
// WireBufSize, and never more than one per buffer-full beyond that —
// bufio's 4 KiB default cost an extra write and read on every page
// over ~4070 B. It also checks that the connection an exchange hands
// back to the pool is the bare dialed socket, with no buffer attached.
func TestSyscallBudget(t *testing.T) {
	var client, server ioCount
	c, srv := hop(t,
		func(nc net.Conn) net.Conn { return &countingConn{Conn: nc, n: &client} },
		func(nc net.Conn) net.Conn { return &countingConn{Conn: nc, n: &server} })

	// perBuffer is the budget for a message of wire bytes.
	perBuffer := func(wire int) int64 {
		return int64((wire + memproto.WireBufSize - 1) / memproto.WireBufSize)
	}
	// check compares one exchange's counts with its budget: request
	// bytes flow client→server, reply bytes server→client.
	check := func(t *testing.T, op string, request, reply int) {
		t.Helper()
		cr, cw := client.take()
		sr, sw := server.take()
		for _, dir := range []struct {
			name          string
			wire          int
			writes, reads int64
		}{
			{"request", request, cw, sr},
			{"reply", reply, sw, cr},
		} {
			budget := perBuffer(dir.wire)
			if dir.wire <= memproto.WireBufSize {
				if dir.writes != 1 || dir.reads != 1 {
					t.Errorf("%s %s (%d B on the wire): %d writes, %d reads; want exactly 1 and 1",
						op, dir.name, dir.wire, dir.writes, dir.reads)
				}
			} else if dir.writes > budget || dir.reads > budget {
				t.Errorf("%s %s (%d B on the wire): %d writes, %d reads; want at most %d each",
					op, dir.name, dir.wire, dir.writes, dir.reads, budget)
			}
		}
	}

	if _, err := c.Version(); err != nil { // dial outside the counted exchanges
		t.Fatal(err)
	}
	client.take()
	server.take()

	for _, size := range []int{256, 4000, 4200, 6143, 16000, 70000} {
		keys := budgetKeys(size)
		for i, k := range keys {
			srv.Cache().Set(k, page(size, i), 0)
		}
		header := len(fmt.Sprintf("VALUE %s 0 %d\r\n", keys[0], size))
		t.Run(fmt.Sprintf("get/%d", size), func(t *testing.T) {
			got, ok, err := c.Get(keys[0])
			if err != nil || !ok || !bytes.Equal(got, page(size, 0)) {
				t.Fatalf("Get: ok=%v err=%v, %d bytes", ok, err, len(got))
			}
			check(t, "get", len("get \r\n")+len(keys[0]), header+size+len("\r\nEND\r\n"))
		})
		t.Run(fmt.Sprintf("set/%d", size), func(t *testing.T) {
			if err := c.Set(keys[0], page(size, 0), 0); err != nil {
				t.Fatal(err)
			}
			request := len(fmt.Sprintf("set %s 0 0 %d\r\n", keys[0], size)) + size + len("\r\n")
			check(t, "set", request, len("STORED\r\n"))
		})
		t.Run(fmt.Sprintf("multiget8/%d", size), func(t *testing.T) {
			got, err := c.MultiGet(keys...)
			if err != nil || len(got) != len(keys) {
				t.Fatalf("MultiGet: %d values, %v", len(got), err)
			}
			for i, k := range keys {
				if !bytes.Equal(got[k], page(size, i)) {
					t.Fatalf("MultiGet: wrong bytes for %s", k)
				}
			}
			request := len("get\r\n")
			for _, k := range keys {
				request += 1 + len(k)
			}
			check(t, "multiget8", request, len(keys)*(header+size+len("\r\n"))+len("END\r\n"))
		})
	}

	if len(c.pool) != 1 {
		t.Fatalf("%d idle connections, want 1", len(c.pool))
	}
	idle := <-c.pool
	c.pool <- idle
	if _, bare := idle.(*countingConn); !bare {
		t.Fatalf("pooled connection is a %T, want the dialed socket itself", idle)
	}
}

// TestSlowPeerReassembly dribbles reads on both sides — every third one
// returns a single byte — so headers, bodies and the bodies that bypass
// the buffer all arrive in pieces, and checks every value still comes
// back whole.
func TestSlowPeerReassembly(t *testing.T) {
	inj := faultinject.New(5, faultinject.Rule{
		Server: faultinject.AnyServer, Op: faultinject.OpRead,
		Kind: faultinject.KindSlowRead, Every: 3,
	})
	wrap := func(nc net.Conn) net.Conn { return inj.WrapConn(0, nc) }
	c, _ := hop(t, wrap, wrap)
	for _, size := range []int{256, 4200, 16000, 70000} {
		keys := budgetKeys(size)
		for i, k := range keys {
			if err := c.Set(k, page(size, i), 0); err != nil {
				t.Fatalf("Set %s: %v", k, err)
			}
		}
		got, ok, err := c.Get(keys[3])
		if err != nil || !ok || !bytes.Equal(got, page(size, 3)) {
			t.Fatalf("Get %s: ok=%v err=%v, %d bytes", keys[3], ok, err, len(got))
		}
		all, err := c.MultiGet(keys...)
		if err != nil || len(all) != len(keys) {
			t.Fatalf("MultiGet at %d B: %d values, %v", size, len(all), err)
		}
		for i, k := range keys {
			if !bytes.Equal(all[k], page(size, i)) {
				t.Fatalf("MultiGet: wrong bytes for %s", k)
			}
		}
	}
	if len(inj.Events()) == 0 {
		t.Fatal("the slow-read rule never fired")
	}
}
