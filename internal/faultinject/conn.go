package faultinject

import (
	"errors"
	"fmt"
	"net"
	"time"
)

// ErrInjected marks every fault surfaced as an error, so tests and
// resilience code can tell injected faults from organic failures with
// errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Dial dials addr with OpDial faults applied and, on success, returns
// the connection wrapped with OpRead/OpWrite fault points. It is shaped
// to slot straight into cacheclient.WithDialer via a closure binding
// the server index.
func (in *Injector) Dial(server int, addr string, timeout time.Duration) (net.Conn, error) {
	switch d := in.Decide(server, OpDial); d.Kind {
	case KindDelay, KindSlowRead:
		//lint:allow transdeterminism live-plane fault actuation: the schedule is already fixed by the seeded Decide; the DES applies delays in virtual time instead
		time.Sleep(d.Delay)
	case KindError, KindDrop:
		return nil, fmt.Errorf("dial %s: %w", addr, ErrInjected)
	}
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return in.WrapConn(server, nc), nil
}

// WrapConn wraps an established connection (either side) so every Read
// and Write consults the injector first. cacheserver.Config.WrapConn
// accepts the server-side closure.
func (in *Injector) WrapConn(server int, nc net.Conn) net.Conn {
	return &faultConn{Conn: nc, in: in, server: server}
}

type faultConn struct {
	net.Conn
	in     *Injector
	server int
}

func (c *faultConn) Read(p []byte) (int, error) {
	switch d := c.in.Decide(c.server, OpRead); d.Kind {
	case KindDelay:
		//lint:allow transdeterminism live-plane fault actuation: the schedule is already fixed by the seeded Decide; the DES applies delays in virtual time instead
		time.Sleep(d.Delay)
	case KindSlowRead:
		//lint:allow transdeterminism live-plane fault actuation: the schedule is already fixed by the seeded Decide; the DES applies delays in virtual time instead
		time.Sleep(d.Delay)
		if len(p) > 1 {
			p = p[:1]
		}
	case KindError:
		return 0, fmt.Errorf("read: %w", ErrInjected)
	case KindDrop:
		c.Conn.Close()
		return 0, fmt.Errorf("read: %w", ErrInjected)
	}
	return c.Conn.Read(p)
}

func (c *faultConn) Write(p []byte) (int, error) {
	switch d := c.in.Decide(c.server, OpWrite); d.Kind {
	case KindDelay, KindSlowRead:
		//lint:allow transdeterminism live-plane fault actuation: the schedule is already fixed by the seeded Decide; the DES applies delays in virtual time instead
		time.Sleep(d.Delay)
	case KindError:
		return 0, fmt.Errorf("write: %w", ErrInjected)
	case KindDrop:
		c.Conn.Close()
		return 0, fmt.Errorf("write: %w", ErrInjected)
	}
	return c.Conn.Write(p)
}
