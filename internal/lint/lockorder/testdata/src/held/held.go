// Package held is the lockorder fixture for the intraprocedural rules:
// the repository's standard lock idioms (defer unlock,
// guard-unlock-return, unlock-before-blocking) pass; leaked locks on
// return paths and blocking under a mutex are flagged.
package held

import (
	"net"
	"sync"
	"time"
)

type server struct {
	mu    sync.Mutex
	addr  string
	conns int
}

// deferOK: every return path releases via defer.
func (s *server) deferOK() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.addr == "" {
		return "unset"
	}
	return s.addr
}

// guardOK: explicit unlock on each path before returning.
func (s *server) guardOK() (string, bool) {
	s.mu.Lock()
	if s.addr == "" {
		s.mu.Unlock()
		return "", false
	}
	addr := s.addr
	s.mu.Unlock()
	return addr, true
}

// leakyReturn holds s.mu across the early return.
func (s *server) leakyReturn(min int) int {
	s.mu.Lock()
	if s.conns < min {
		return 0 // want `return while s\.mu is held`
	}
	n := s.conns
	s.mu.Unlock()
	return n
}

// leakyPair holds two mutexes of one type: releasing a.mu must not
// hide the return that leaks b.mu.
func leakyPair(a, b *server) int {
	a.mu.Lock()
	b.mu.Lock()
	a.mu.Unlock()
	if b.conns == 0 {
		return 0 // want `return while b\.mu is held`
	}
	b.mu.Unlock()
	return 1
}

// sleepUnderTwo blocks with two mutexes held: one finding per mutex at
// one position.
func sleepUnderTwo(a, b *server) {
	a.mu.Lock()
	b.mu.Lock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while a\.mu is held` `time\.Sleep while b\.mu is held`
	b.mu.Unlock()
	a.mu.Unlock()
}

// resetConns is a package-level function literal, checked like any
// function.
var resetConns = func(s *server) int {
	s.mu.Lock()
	if s.conns == 0 {
		return 0 // want `return while s\.mu is held`
	}
	s.conns = 0
	s.mu.Unlock()
	return 1
}

// unlockThenDial releases before the network call — the fix the
// analyzer pushes toward.
func (s *server) unlockThenDial() (net.Conn, error) {
	s.mu.Lock()
	addr := s.addr
	s.mu.Unlock()
	return net.Dial("tcp", addr)
}

// closeAtExit defers a blocking Close under the lock: the deferred call
// runs at exit, after the unlock, so it blocks nothing here.
func (s *server) closeAtExit(c net.Conn) {
	s.mu.Lock()
	defer c.Close()
	s.conns--
	s.mu.Unlock()
}

// dialUnderLock performs network I/O with the (defer-held) lock.
func (s *server) dialUnderLock() (net.Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return net.Dial("tcp", s.addr) // want `network I/O call \(net\.Dial\) while s\.mu is held`
}

// readUnderLock blocks on a conn while holding the lock.
func (s *server) readUnderLock(c net.Conn, buf []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return c.Read(buf) // want `network I/O \(Conn\.Read\) while s\.mu is held`
}

// sleepUnderLock stalls every other goroutine contending for s.mu.
func (s *server) sleepUnderLock() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while s\.mu is held`
	s.mu.Unlock()
}

// sendUnderLock can block forever if the receiver is gone.
func (s *server) sendUnderLock(ch chan int) {
	s.mu.Lock()
	ch <- s.conns // want `channel send while s\.mu is held`
	s.mu.Unlock()
}

// bindUnderLock mirrors cluster.LocalNode.PowerOn: binding under the
// mutex is deliberate, so the site carries a justified directive.
func (s *server) bindUnderLock() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:allow lockorder binding under the lock serializes power transitions by design
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		return err
	}
	return ln.Close()
}
