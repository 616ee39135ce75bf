package cacheclient

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proteus/internal/faultinject"
	"proteus/internal/memproto"
)

// scriptServer answers each request with the next canned response, for
// exercising exact wire corner cases. accepts counts connections.
func scriptServer(t *testing.T, responses []string) (addr string, accepts, requests *int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var mu sync.Mutex
	served := 0
	accepts, requests = new(int32), new(int32)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			atomic.AddInt32(accepts, 1)
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					if _, err := memproto.ReadRequest(br); err != nil {
						return
					}
					mu.Lock()
					i := served
					served++
					mu.Unlock()
					atomic.AddInt32(requests, 1)
					if i >= len(responses) {
						return
					}
					if _, err := conn.Write([]byte(responses[i])); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), accepts, requests
}

// Regression for the pool-poisoning bug: a per-key SERVER_ERROR inside
// a retrieval response ("SERVER_ERROR ...\r\nEND\r\n", exactly what the
// cache server emits when a digest snapshot fails mid-get) used to
// leave the trailing END buffered on a connection that went back into
// the pool, so the NEXT request read the stale END as its own response
// and silently became a miss. The connection must be discarded instead.
func TestServerErrorMidResponseDoesNotPoisonPool(t *testing.T) {
	addr, _, _ := scriptServer(t, []string{
		"SERVER_ERROR digest snapshot failed\r\nEND\r\n",
		"VALUE k 0 1\r\nv\r\nEND\r\n",
	})
	c := New(addr, WithMaxConns(1), WithTimeout(time.Second))
	defer c.Close()

	_, _, err := c.Get("k")
	var se *memproto.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("first Get error = %v, want ServerError", err)
	}
	// The poisoned path returned (nil, false, nil) here — a phantom
	// miss — because the stale END was consumed as the response.
	v, ok, err := c.Get("k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get after SERVER_ERROR: %q, %v, %v (stale bytes served?)", v, ok, err)
	}
}

// A clean single-line SERVER_ERROR (stream aligned, nothing buffered)
// still keeps the connection, as before.
func TestAlignedServerErrorKeepsConnection(t *testing.T) {
	addr, accepts, _ := scriptServer(t, []string{
		"SERVER_ERROR out of memory\r\n",
		"STORED\r\n",
	})
	c := New(addr, WithMaxConns(1), WithTimeout(time.Second))
	defer c.Close()

	err := c.Set("k", []byte("v"), 0)
	var se *memproto.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("Set error = %v, want ServerError", err)
	}
	if err := c.Set("k", []byte("v"), 0); err != nil {
		t.Fatalf("second Set: %v", err)
	}
	if *accepts != 1 {
		t.Fatalf("server accepted %d conns; aligned SERVER_ERROR should keep the connection", *accepts)
	}
}

// Transport errors retry with jittered backoff until the server
// recovers within the retry budget.
func TestRetriesRideOutInjectedFaults(t *testing.T) {
	addr := startServer(t).Addr() // live server, lifetime tied to t.Cleanup

	// Fail the first two dials, then let traffic through.
	inj := faultinject.New(1, faultinject.Rule{
		Server: 0, Op: faultinject.OpDial, Kind: faultinject.KindError, Every: 1, Limit: 2,
	})
	var slept []time.Duration
	c := New(addr,
		WithDialer(func(a string, to time.Duration) (net.Conn, error) { return inj.Dial(0, a, to) }),
		WithMaxRetries(2),
		WithBackoff(time.Millisecond, 8*time.Millisecond),
		WithJitterSeed(7),
		WithSleep(func(d time.Duration) { slept = append(slept, d) }),
		WithTimeout(time.Second),
	)
	defer c.Close()

	if err := c.Set("k", []byte("v"), 0); err != nil {
		t.Fatalf("Set through 2 injected dial faults: %v", err)
	}
	if len(slept) != 2 {
		t.Fatalf("backoff slept %d times (%v), want 2", len(slept), slept)
	}
	// Jittered exponential: sleep k falls in [window/2, window] with the
	// window doubling per attempt.
	if slept[0] < 500*time.Microsecond || slept[0] > time.Millisecond {
		t.Errorf("first backoff %v outside [0.5ms, 1ms]", slept[0])
	}
	if slept[1] < time.Millisecond || slept[1] > 2*time.Millisecond {
		t.Errorf("second backoff %v outside [1ms, 2ms]", slept[1])
	}
}

// Same jitter seed -> same backoff schedule (test determinism).
func TestBackoffDeterministicUnderSeed(t *testing.T) {
	schedule := func() []time.Duration {
		inj := faultinject.New(3, faultinject.Rule{
			Server: 0, Op: faultinject.OpDial, Kind: faultinject.KindError, Every: 1,
		})
		var slept []time.Duration
		c := New("127.0.0.1:1",
			WithDialer(func(a string, to time.Duration) (net.Conn, error) { return inj.Dial(0, a, to) }),
			WithMaxRetries(3),
			WithBackoff(time.Millisecond, 50*time.Millisecond),
			WithJitterSeed(99),
			WithSleep(func(d time.Duration) { slept = append(slept, d) }),
		)
		defer c.Close()
		c.Get("k") // fails after exhausting retries
		return slept
	}
	a, b := schedule(), schedule()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("sleep counts = %d, %d, want 3", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backoff schedule diverged at %d: %v vs %v", i, a, b)
		}
	}
}

// The breaker opens after `threshold` consecutive transport failures,
// fails fast during cooldown without touching the network, then a
// half-open probe closes it once the server recovers.
func TestCircuitBreakerOpensAndRecovers(t *testing.T) {
	addr := startServer(t).Addr()
	inj := faultinject.New(5)
	inj.Partition(0)

	var dials int32
	var mu sync.Mutex
	now := time.Unix(0, 0)
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	c := New(addr,
		WithDialer(func(a string, to time.Duration) (net.Conn, error) {
			atomic.AddInt32(&dials, 1)
			return inj.Dial(0, a, to)
		}),
		WithMaxRetries(0),
		WithBreaker(3, 100*time.Millisecond),
		WithSleep(func(time.Duration) {}),
		WithTimeout(time.Second),
	)
	defer c.Close()
	c.breaker.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}

	// Three failures trip the breaker.
	for i := 0; i < 3; i++ {
		if _, _, err := c.Get("k"); err == nil {
			t.Fatal("Get against partitioned server succeeded")
		}
	}
	// Open: fails fast with no dial.
	before := atomic.LoadInt32(&dials)
	if _, _, err := c.Get("k"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("during cooldown: err = %v, want ErrCircuitOpen", err)
	}
	if got := atomic.LoadInt32(&dials); got != before {
		t.Fatalf("breaker-open call dialed %d times", got-before)
	}

	// Server heals; cooldown elapses; the probe closes the breaker.
	inj.Heal(0)
	advance(101 * time.Millisecond)
	if err := c.Set("k", []byte("v"), 0); err != nil {
		t.Fatalf("probe after cooldown: %v", err)
	}
	if _, ok, err := c.Get("k"); err != nil || !ok {
		t.Fatalf("after recovery: ok=%v err=%v", ok, err)
	}
}

// A probe failure re-opens the breaker for another full cooldown.
func TestCircuitBreakerReopensOnFailedProbe(t *testing.T) {
	c := New("127.0.0.1:1", // refused
		WithMaxRetries(0),
		WithBreaker(2, 50*time.Millisecond),
		WithSleep(func(time.Duration) {}),
		WithTimeout(100*time.Millisecond),
	)
	defer c.Close()
	now := time.Unix(0, 0)
	c.breaker.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		c.Get("k")
	}
	if _, _, err := c.Get("k"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	now = now.Add(51 * time.Millisecond)
	if _, _, err := c.Get("k"); errors.Is(err, ErrCircuitOpen) {
		t.Fatal("half-open probe was not allowed through")
	}
	// The failed probe re-armed the cooldown.
	if _, _, err := c.Get("k"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("after failed probe: err = %v, want ErrCircuitOpen", err)
	}
}

// When the breaker opens, idle pooled connections are evicted so a
// recovered server starts from fresh dials instead of stale sockets.
func TestBreakerOpenEvictsPool(t *testing.T) {
	addr := startServer(t).Addr()
	inj := faultinject.New(9)
	c := New(addr,
		WithDialer(func(a string, to time.Duration) (net.Conn, error) { return inj.Dial(0, a, to) }),
		WithMaxConns(2), WithBreaker(1, time.Hour), WithMaxRetries(0),
		WithSleep(func(time.Duration) {}), WithTimeout(time.Second),
	)
	defer c.Close()

	// Fill the pool with two live, injector-wrapped connections.
	for i := 0; i < 2; i++ {
		<-c.tokens
		nc, err := inj.Dial(0, addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c.putConn(nc, false)
	}

	// Partition the server: the next Get fails on the first pooled
	// connection, trips the threshold-1 breaker, and the breaker evicts
	// the remaining idle connection.
	inj.Partition(0)
	if _, _, err := c.Get("k"); !errors.Is(err, ErrCircuitOpen) && err == nil {
		t.Fatal("Get against partitioned server succeeded")
	}
	if got := len(c.pool); got != 0 {
		t.Fatalf("pool after breaker open holds %d conns, want 0", got)
	}
	if got := len(c.tokens); got != 2 {
		t.Fatalf("tokens after eviction = %d, want 2", got)
	}
}

// A power cycle kills every pooled connection and leaves the breaker in
// whatever state the dying node earned. DropIdle, which the coordinator
// calls at power-off, makes the client as new for the node that comes
// back at the address: nothing stale to be found dead one operation at
// a time, no cooldown to sit out.
func TestDropIdleAfterPowerCycle(t *testing.T) {
	first, addr := bootServer(t, "127.0.0.1:0", nil)

	var dials atomic.Int32
	c := New(addr,
		WithDialer(func(a string, to time.Duration) (net.Conn, error) {
			dials.Add(1)
			return net.DialTimeout("tcp", a, to)
		}),
		WithMaxConns(4), WithBreaker(1, time.Hour), WithMaxRetries(0),
		WithSleep(func(time.Duration) {}), WithTimeout(time.Second),
	)
	defer c.Close()

	// Four idle connections to the node that is about to die.
	for i := 0; i < 4; i++ {
		<-c.tokens
		nc, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c.putConn(nc, false)
	}
	first.Close()
	// An operation caught by the power-off fails and opens the
	// threshold-1 breaker for an hour.
	if _, _, err := c.Get("k"); err == nil {
		t.Fatal("Get against a powered-off server succeeded")
	}
	if _, _, err := c.Get("k"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("breaker not open after the failure: %v", err)
	}

	c.DropIdle()
	if len(c.pool) != 0 || len(c.tokens) != 4 {
		t.Fatalf("after DropIdle: %d pooled, %d tokens; want 0 and 4", len(c.pool), len(c.tokens))
	}

	second, _ := bootServer(t, addr, nil)
	second.Cache().Set("k", []byte("v"), 0)
	before := dials.Load()
	v, ok, err := c.Get("k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get after regrow: %q, %v, %v", v, ok, err)
	}
	if got := dials.Load() - before; got != 1 {
		t.Fatalf("Get after regrow dialed %d times, want one fresh dial and no retry", got)
	}
}
