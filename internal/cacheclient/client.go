// Package cacheclient is the memcached-protocol client used by the web
// tier to talk to Proteus cache servers. It keeps a bounded pool of TCP
// connections per server (the role Apache Commons Pool plays in the
// paper's Java servlets) and adds the digest-fetch convenience built on
// the paper's reserved SET_BLOOM_FILTER / BLOOM_FILTER keys.
package cacheclient

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
	"time"

	"proteus/internal/bloom"
	"proteus/internal/memproto"
	"proteus/internal/telemetry"
)

// ErrClosed is returned by calls made after Close.
var ErrClosed = errors.New("cacheclient: client closed")

// ErrCircuitOpen is returned without touching the network while the
// per-server circuit breaker is open: the server failed repeatedly and
// is being given a cooldown before the next probe. Callers (the web
// tier) treat it like any transport error — skip to the next replica
// ring or the database — but pay no dial or timeout cost, which is what
// keeps a dead server from inflating tail latency.
var ErrCircuitOpen = errors.New("cacheclient: circuit open")

// DialFunc dials one cache server; installable for fault injection and
// custom transports.
type DialFunc func(addr string, timeout time.Duration) (net.Conn, error)

// DefaultMaxConns is the connection-pool bound used when WithMaxConns
// is not given. 16 comes from the A-series throughput sweep
// (EXPERIMENTS.md): with the sharded server, loopback GET throughput
// scales with client connections up to roughly the server's shard
// count (DefaultShards = 16) and is flat beyond it, while 4 connections
// — the old default, matching the paper's Apache Commons Pool sizing —
// left the server's shards idle and capped a single web tier at ~4
// in-flight requests per cache node.
const DefaultMaxConns = 16

// Option customises a Client.
type Option func(*Client)

// WithMaxConns bounds the connection pool (default DefaultMaxConns).
func WithMaxConns(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.maxConns = n
		}
	}
}

// WithTimeout sets both dial and per-operation I/O deadlines
// (default 5s).
func WithTimeout(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// WithDialer replaces the TCP dialer (default net.DialTimeout). The
// fault injector's Injector.Dial slots in here.
func WithDialer(dial DialFunc) Option {
	return func(c *Client) {
		if dial != nil {
			c.dial = dial
		}
	}
}

// WithMaxRetries bounds transport-error retries per operation beyond
// the free immediate retry a stale pooled connection gets (default 2;
// 0 disables). Protocol-level error replies are never retried.
func WithMaxRetries(n int) Option {
	return func(c *Client) {
		if n >= 0 {
			c.maxRetries = n
		}
	}
}

// WithBackoff sets the exponential backoff window between retries:
// the k-th retry sleeps base<<k capped at max, jittered to 50-100% of
// that value (defaults 2ms..100ms).
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) {
		if base > 0 {
			c.backoffBase = base
		}
		if max >= base {
			c.backoffMax = max
		}
	}
}

// WithBreaker configures the circuit breaker: after threshold
// consecutive transport failures the breaker opens for cooldown, during
// which every call fails fast with ErrCircuitOpen; the first call after
// cooldown is a single probe that closes the breaker on success.
// threshold <= 0 disables the breaker. Defaults: 8 failures, 250ms.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(c *Client) {
		c.breaker.threshold = threshold
		if cooldown > 0 {
			c.breaker.cooldown = cooldown
		}
	}
}

// WithJitterSeed seeds the backoff jitter RNG for deterministic retry
// schedules in tests. The default seed is derived from the server
// address, so a fleet of clients jitters decorrelated but reproducibly.
func WithJitterSeed(seed int64) Option {
	return func(c *Client) { c.jitterSeed = &seed }
}

// WithSleep replaces the backoff sleeper (tests pass a no-op or a
// recorder; default time.Sleep).
func WithSleep(sleep func(time.Duration)) Option {
	return func(c *Client) {
		if sleep != nil {
			c.sleep = sleep
		}
	}
}

// WithTelemetry registers the client's instruments on reg: per-op
// latency and outcome counts, retry totals, and circuit-breaker state,
// all labeled with the server address. A nil registry leaves the
// client uninstrumented at zero cost.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *Client) {
		if reg == nil {
			return
		}
		c.tel = &clientTelemetry{
			ops: reg.Counter("proteus_client_ops_total",
				"client operations by op and result", "addr", "op", "result"),
			latency: reg.Histogram("proteus_client_op_seconds",
				"client operation latency", "addr", "op"),
			retries: reg.Counter("proteus_client_retries_total",
				"operation retries (stale-connection and backoff)", "addr").With(c.addr),
			breakerOpens: reg.Counter("proteus_client_breaker_opens_total",
				"times the circuit breaker opened", "addr").With(c.addr),
			breakerOpen: reg.Gauge("proteus_client_breaker_open",
				"1 while the circuit breaker is open", "addr").With(c.addr),
			multigetBatches: reg.Counter("proteus_client_multiget_batches_total",
				"pipelined multi-get batches sent", "addr").With(c.addr),
			multigetKeys: reg.Counter("proteus_client_multiget_keys_total",
				"keys requested across multi-get batches (ratio to batches = mean batch size)", "addr").With(c.addr),
			multigetDups: reg.Counter("proteus_client_multiget_dup_keys_total",
				"duplicate keys deduplicated before send", "addr").With(c.addr),
		}
	}
}

// clientTelemetry holds the per-client instrument handles. All fields
// are wired once in WithTelemetry; the zero cost of a nil receiver is
// a single branch in roundTrip.
type clientTelemetry struct {
	ops             *telemetry.CounterVec
	latency         *telemetry.HistogramVec
	retries         *telemetry.Counter
	breakerOpens    *telemetry.Counter
	breakerOpen     *telemetry.Gauge
	multigetBatches *telemetry.Counter
	multigetKeys    *telemetry.Counter
	multigetDups    *telemetry.Counter
}

// result buckets an operation error into a label value.
func opResult(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrCircuitOpen):
		return "circuit_open"
	case errors.Is(err, ErrClosed):
		return "closed"
	default:
		var se *memproto.ServerError
		if errors.As(err, &se) {
			return "server_error"
		}
		return "transport"
	}
}

// Client is a pooled connection to one cache server. It is safe for
// concurrent use.
type Client struct {
	addr        string
	maxConns    int
	timeout     time.Duration
	maxRetries  int
	backoffBase time.Duration
	backoffMax  time.Duration
	dial        DialFunc
	sleep       func(time.Duration)
	jitterSeed  *int64

	jmu  sync.Mutex
	jrng *rand.Rand

	tel  *clientTelemetry
	load loadMeter

	breaker breaker

	pool   chan net.Conn // idle connections: bare sockets, no buffers
	tokens chan struct{} // limits total live connections
	closed chan struct{}
}

// wire is the buffering of one exchange. A pooled connection is empty
// between exchanges — exchangeOnce discards one that is not — so an
// idle connection has no use for buffers: each exchange borrows a pair
// from wirePool and returns it, and buffer memory follows operations in
// flight, not maxConns × servers.
type wire struct {
	br *bufio.Reader
	bw *bufio.Writer
}

var wirePool = sync.Pool{
	New: func() interface{} {
		return &wire{
			br: bufio.NewReaderSize(nil, memproto.WireBufSize),
			bw: bufio.NewWriterSize(nil, memproto.WireBufSize),
		}
	},
}

// breaker is a per-server circuit breaker. It trips after threshold
// consecutive transport failures, fails fast for cooldown, then lets a
// single probe through (half-open) to test recovery.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu        sync.Mutex
	fails     int
	openUntil time.Time
	probing   bool
}

// allow reports whether a call may proceed; ErrCircuitOpen otherwise.
func (b *breaker) allow() error {
	if b.threshold <= 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fails < b.threshold {
		return nil
	}
	if b.now().Before(b.openUntil) {
		return ErrCircuitOpen
	}
	if b.probing {
		return ErrCircuitOpen // one half-open probe at a time
	}
	b.probing = true
	return nil
}

func (b *breaker) success() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.fails = 0
	b.probing = false
	b.mu.Unlock()
}

// failure records one transport failure; the bool reports whether this
// failure opened (or re-opened) the breaker.
func (b *breaker) failure() bool {
	if b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	b.probing = false
	if b.fails >= b.threshold {
		b.openUntil = b.now().Add(b.cooldown)
		return true
	}
	return false
}

// New builds a client for the server at addr.
func New(addr string, opts ...Option) *Client {
	c := &Client{
		addr:        addr,
		maxConns:    DefaultMaxConns,
		timeout:     5 * time.Second,
		maxRetries:  2,
		backoffBase: 2 * time.Millisecond,
		backoffMax:  100 * time.Millisecond,
		sleep:       time.Sleep,
		closed:      make(chan struct{}),
		breaker:     breaker{threshold: 8, cooldown: 250 * time.Millisecond, now: time.Now},
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.dial == nil {
		c.dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	seed := addrSeed(addr)
	if c.jitterSeed != nil {
		seed = *c.jitterSeed
	}
	c.jrng = rand.New(rand.NewSource(seed))
	c.pool = make(chan net.Conn, c.maxConns)
	c.tokens = make(chan struct{}, c.maxConns)
	for i := 0; i < c.maxConns; i++ {
		c.tokens <- struct{}{}
	}
	return c
}

// addrSeed derives a stable per-address jitter seed, so retries are
// reproducible yet decorrelated across a fleet of clients.
func addrSeed(addr string) int64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	return int64(h.Sum64())
}

// Addr returns the server address this client targets.
func (c *Client) Addr() string { return c.addr }

// Close releases all pooled connections. In-flight calls may still
// complete; subsequent calls fail with ErrClosed.
func (c *Client) Close() {
	select {
	case <-c.closed:
		return
	default:
	}
	close(c.closed)
	for {
		select {
		case nc := <-c.pool:
			_ = nc.Close() // pool drain is best-effort
		default:
			return
		}
	}
}

// getConn returns a connection and whether it came from the pool (a
// pooled connection may have been closed by a server power cycle, so
// its first use is retried).
func (c *Client) getConn() (net.Conn, bool, error) {
	select {
	case <-c.closed:
		return nil, false, ErrClosed
	default:
	}
	// Prefer a warm pooled connection over dialing: with a pool larger
	// than the steady-state demand the tokens channel never drains, and
	// letting select choose randomly between the two arms would both
	// waste dials and make the operation sequence nondeterministic
	// (the chaos tests replay fault schedules by op ordinal).
	select {
	case nc := <-c.pool:
		return nc, true, nil
	default:
	}
	select {
	case nc := <-c.pool:
		return nc, true, nil
	case <-c.tokens:
		nc, err := c.dial(c.addr, c.timeout)
		if err != nil {
			c.tokens <- struct{}{}
			return nil, false, fmt.Errorf("cacheclient: dial %s: %w", c.addr, err)
		}
		return nc, false, nil
	case <-c.closed:
		return nil, false, ErrClosed
	}
}

// evictPool discards every idle pooled connection. Called when the
// circuit breaker opens: pooled connections to a failing server are
// almost certainly dead, and holding them would waste the first call
// after recovery on a stale-connection retry.
func (c *Client) evictPool() {
	for {
		select {
		case nc := <-c.pool:
			_ = nc.Close() // already presumed dead by the caller
			c.tokens <- struct{}{}
		default:
			return
		}
	}
}

// DropIdle closes every idle pooled connection and closes the circuit
// breaker. The coordinator calls it when it powers the server off: the
// connections die with the process, and the node that later answers at
// this address is a new one, owed neither up to maxConns stale-socket
// failures nor the old one's open breaker.
func (c *Client) DropIdle() {
	c.evictPool()
	c.breaker.success()
	if c.tel != nil {
		c.tel.breakerOpen.Set(0)
	}
}

func (c *Client) putConn(nc net.Conn, broken bool) {
	if broken {
		_ = nc.Close() // the transport error already surfaced to the caller
		c.tokens <- struct{}{}
		return
	}
	select {
	case <-c.closed:
		_ = nc.Close() // client shut down; nothing to report to
		c.tokens <- struct{}{}
	case c.pool <- nc:
	}
}

// roundTrip sends one request and parses the reply with fn; see
// exchange for the retry/breaker discipline.
func (c *Client) roundTrip(req *memproto.Request, fn func(*bufio.Reader) error) error {
	read := fn
	if req.NoReply {
		read = nil
	}
	return c.exchange(req.Command.String(), req.WriteTo, read)
}

// exchange performs one buffered write (which may carry several
// pipelined requests) followed by read, riding out transport faults:
//
//   - a stale pooled connection (e.g. the server was power cycled since
//     the connection was cached) gets one free immediate retry on a
//     fresh dial, the standard memcached-client behaviour;
//   - further transport failures retry up to maxRetries times with
//     jittered exponential backoff — the whole pipelined exchange is
//     the retry unit, so a mid-batch failure re-sends the batch;
//   - the circuit breaker fails fast with ErrCircuitOpen while the
//     server is in cooldown, and evicts the (dead) pooled connections
//     when it opens.
//
// A nil read means no reply is expected (noreply requests).
// Protocol-level error replies and ErrClosed are terminal: the server
// answered (or the client is gone), so retrying cannot help.
func (c *Client) exchange(op string, write func(*bufio.Writer) error, read func(*bufio.Reader) error) error {
	start := c.load.begin()
	err := c.doExchange(write, read)
	c.load.end(start)
	if c.tel != nil {
		c.tel.latency.With(c.addr, op).Observe(time.Since(start))
		c.tel.ops.With(c.addr, op, opResult(err)).Inc()
	}
	return err
}

func (c *Client) doExchange(write func(*bufio.Writer) error, read func(*bufio.Reader) error) error {
	freeRetry := true
	for attempt := 0; ; attempt++ {
		if err := c.breaker.allow(); err != nil {
			return err
		}
		pooled, err := c.exchangeOnce(write, read)
		if err == nil {
			c.breaker.success()
			if c.tel != nil {
				c.tel.breakerOpen.Set(0)
			}
			return nil
		}
		var se *memproto.ServerError
		if errors.As(err, &se) || errors.Is(err, ErrClosed) {
			return err // protocol-level or terminal: no retry
		}
		if c.breaker.failure() {
			c.evictPool()
			if c.tel != nil {
				c.tel.breakerOpens.Inc()
				c.tel.breakerOpen.Set(1)
			}
		}
		if pooled && freeRetry {
			// Stale pooled connection: retry immediately on a fresh
			// dial without consuming the retry budget.
			freeRetry = false
			attempt--
			if c.tel != nil {
				c.tel.retries.Inc()
			}
			continue
		}
		if attempt >= c.maxRetries {
			return err
		}
		if c.tel != nil {
			c.tel.retries.Inc()
		}
		c.sleep(c.backoff(attempt))
	}
}

// backoff returns the sleep before retry attempt k (0-based): an
// exponentially growing window, jittered to 50-100% so synchronized
// clients decorrelate.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.backoffBase
	for i := 0; i < attempt && d < c.backoffMax; i++ {
		d *= 2
	}
	if d > c.backoffMax {
		d = c.backoffMax
	}
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	c.jmu.Lock()
	j := c.jrng.Int63n(half + 1)
	c.jmu.Unlock()
	return d/2 + time.Duration(j)
}

func (c *Client) exchangeOnce(write func(*bufio.Writer) error, read func(*bufio.Reader) error) (pooled bool, err error) {
	nc, pooled, err := c.getConn()
	if err != nil {
		return pooled, err
	}
	w := wirePool.Get().(*wire)
	w.br.Reset(nc)
	w.bw.Reset(nc)
	broken := true
	defer func() {
		// Reset drops the socket, and whatever a failed exchange left
		// buffered, before another exchange borrows the pair.
		w.br.Reset(nil)
		w.bw.Reset(nil)
		wirePool.Put(w)
		c.putConn(nc, broken)
	}()

	deadline := time.Now().Add(c.timeout)
	if err := nc.SetDeadline(deadline); err != nil {
		return pooled, fmt.Errorf("cacheclient: set deadline: %w", err)
	}
	if err := write(w.bw); err != nil {
		return pooled, err
	}
	if err := w.bw.Flush(); err != nil {
		return pooled, fmt.Errorf("cacheclient: flush: %w", err)
	}
	if read == nil {
		broken = false
		return pooled, nil
	}
	if err := read(w.br); err != nil {
		// A protocol-level error reply normally leaves the stream
		// aligned, so the connection is reusable — but only if nothing
		// is left buffered. A reply like "SERVER_ERROR ...\r\nEND\r\n"
		// (a per-key failure inside a multi-line response) aborts fn at
		// the error line with the trailing END unread; returning that
		// connection to the pool would serve the leftover bytes as the
		// next request's response. Discard unless the buffer is clean.
		var se *memproto.ServerError
		if errors.As(err, &se) && w.br.Buffered() == 0 {
			broken = false
		}
		return pooled, err
	}
	// A fully parsed response must consume exactly the buffered bytes;
	// anything left means the reader lost alignment. This is also what
	// lets the buffers go back to wirePool: a connection that is kept
	// has nothing in them.
	broken = w.br.Buffered() != 0
	return pooled, nil
}

// Get fetches one key; ok reports residency.
func (c *Client) Get(key string) (value []byte, ok bool, err error) {
	return c.GetInto(key, nil)
}

// GetInto is Get reading a hit's value into buf's capacity when it
// fits, so the returned value may alias buf; a larger value, or a nil
// buf, gets a fresh slice.
func (c *Client) GetInto(key string, buf []byte) (value []byte, ok bool, err error) {
	v, ok, err := c.get(memproto.CmdGet, key, buf)
	return v.Data, ok, err
}

// get is the single-key retrieval behind GetInto and Gets. Its closures
// do not escape, so a hit allocates the value and nothing else — and
// not even that when buf holds it.
func (c *Client) get(cmd memproto.Command, key string, buf []byte) (value memproto.Value, ok bool, err error) {
	err = c.exchange(cmd.String(), func(bw *bufio.Writer) error {
		return memproto.WriteGet(bw, cmd, key)
	}, func(br *bufio.Reader) error {
		for {
			// Only the value kept is read into buf: a retried exchange
			// or a repeated VALUE block must not overwrite it.
			var v memproto.Value
			if !ok {
				v.Data = buf
			}
			more, err := memproto.ReadValue(br, &v)
			if err != nil || !more {
				return err
			}
			if !ok {
				value, ok = v, true
			}
		}
	})
	return value, ok, err
}

// MultiGet fetches several keys in one pipelined exchange, returning
// the resident subset. Keys are deduplicated before sending (callers
// with repeated keys — e.g. a page whose assets share a chunk — cost
// one fetch per distinct key) and split into as many `get` lines as the
// protocol's line limit requires; all lines go out in a single buffered
// write and the responses are streamed back in order, so the exchange
// costs one network round trip regardless of batch count. The whole
// pipeline is the retry/breaker unit: a transport fault anywhere
// re-sends every batch on a fresh connection.
func (c *Client) MultiGet(keys ...string) (map[string][]byte, error) {
	if len(keys) == 0 {
		return map[string][]byte{}, nil
	}
	uniq, dups := dedupeKeys(keys)
	batches := batchKeys(uniq)
	if c.tel != nil {
		c.tel.multigetBatches.Add(uint64(len(batches)))
		c.tel.multigetKeys.Add(uint64(len(uniq)))
		if dups > 0 {
			c.tel.multigetDups.Add(uint64(dups))
		}
	}
	out := make(map[string][]byte, len(uniq))
	err := c.exchange("get_multi", func(bw *bufio.Writer) error {
		for _, batch := range batches {
			if err := memproto.WriteGet(bw, memproto.CmdGet, batch...); err != nil {
				return err
			}
		}
		return nil
	}, func(br *bufio.Reader) error {
		var scratch []memproto.Value
		for range batches {
			values, err := memproto.ReadValues(br, scratch[:0])
			if err != nil {
				return err
			}
			for _, v := range values {
				out[v.Key] = v.Data
			}
			scratch = values
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// dedupeKeys drops repeated keys, preserving first-occurrence order,
// and reports how many duplicates were dropped. The common all-unique
// case returns the input slice unchanged (no copy).
func dedupeKeys(keys []string) ([]string, int) {
	seen := make(map[string]struct{}, len(keys))
	for i, k := range keys {
		if _, dup := seen[k]; dup {
			// First duplicate found: copy the unique prefix and filter
			// the rest.
			uniq := append([]string(nil), keys[:i]...)
			for _, k := range keys[i:] {
				if _, dup := seen[k]; !dup {
					seen[k] = struct{}{}
					uniq = append(uniq, k)
				}
			}
			return uniq, len(keys) - len(uniq)
		}
		seen[k] = struct{}{}
	}
	return keys, 0
}

// batchKeys splits keys into per-line batches so each encoded
// "get k1 k2 ...\r\n" stays within the protocol line limit. A single
// batch covers ~450 keys of typical length, so most calls stay at one.
func batchKeys(keys []string) [][]string {
	const maxLine = memproto.MaxLineLen - len("get\r\n")
	batches := make([][]string, 0, 1)
	start, lineLen := 0, 0
	for i, k := range keys {
		need := 1 + len(k) // separating space + key
		if lineLen+need > maxLine && i > start {
			batches = append(batches, keys[start:i])
			start, lineLen = i, 0
		}
		lineLen += need
	}
	return append(batches, keys[start:])
}

// Set stores a value with an expiry in seconds (0 = server default).
func (c *Client) Set(key string, value []byte, exptime int64) error {
	req := &memproto.Request{Command: memproto.CmdSet, Keys: []string{key}, Exptime: exptime, Data: value}
	return c.expectReply(req, memproto.ReplyStored)
}

// Add stores only if absent, reporting whether it stored.
func (c *Client) Add(key string, value []byte, exptime int64) (bool, error) {
	req := &memproto.Request{Command: memproto.CmdAdd, Keys: []string{key}, Exptime: exptime, Data: value}
	return c.storedReply(req)
}

// Replace stores only if present, reporting whether it stored.
func (c *Client) Replace(key string, value []byte, exptime int64) (bool, error) {
	req := &memproto.Request{Command: memproto.CmdReplace, Keys: []string{key}, Exptime: exptime, Data: value}
	return c.storedReply(req)
}

// Delete removes a key, reporting whether it was resident.
func (c *Client) Delete(key string) (bool, error) {
	req := &memproto.Request{Command: memproto.CmdDelete, Keys: []string{key}}
	var deleted bool
	err := c.roundTrip(req, func(br *bufio.Reader) error {
		reply, err := memproto.ReadReply(br)
		if err != nil {
			return err
		}
		deleted = reply == memproto.ReplyDeleted
		return nil
	})
	return deleted, err
}

// Touch refreshes a key's TTL, reporting whether it was resident.
func (c *Client) Touch(key string, exptime int64) (bool, error) {
	req := &memproto.Request{Command: memproto.CmdTouch, Keys: []string{key}, Exptime: exptime}
	var touched bool
	err := c.roundTrip(req, func(br *bufio.Reader) error {
		reply, err := memproto.ReadReply(br)
		if err != nil {
			return err
		}
		touched = reply == memproto.ReplyTouched
		return nil
	})
	return touched, err
}

// Stats fetches the server's stats map.
func (c *Client) Stats() (map[string]string, error) {
	req := &memproto.Request{Command: memproto.CmdStats}
	var stats map[string]string
	err := c.roundTrip(req, func(br *bufio.Reader) error {
		var err error
		stats, err = memproto.ReadStats(br)
		return err
	})
	return stats, err
}

// FlushAll clears the server.
func (c *Client) FlushAll() error {
	req := &memproto.Request{Command: memproto.CmdFlushAll}
	return c.expectReply(req, memproto.ReplyOK)
}

// Version returns the server version string.
func (c *Client) Version() (string, error) {
	req := &memproto.Request{Command: memproto.CmdVersion}
	var version string
	err := c.roundTrip(req, func(br *bufio.Reader) error {
		reply, err := memproto.ReadReply(br)
		if err != nil {
			return err
		}
		version = reply
		return nil
	})
	return version, err
}

// FetchDigest snapshots and downloads the server's Bloom filter digest,
// exactly as the paper's web servers do at the start of a transition:
// get(SET_BLOOM_FILTER) then get(BLOOM_FILTER).
func (c *Client) FetchDigest() (*bloom.Filter, error) {
	if _, _, err := c.Get("SET_BLOOM_FILTER"); err != nil {
		return nil, fmt.Errorf("cacheclient: snapshot digest: %w", err)
	}
	data, ok, err := c.Get("BLOOM_FILTER")
	if err != nil {
		return nil, fmt.Errorf("cacheclient: fetch digest: %w", err)
	}
	if !ok {
		return nil, errors.New("cacheclient: server returned no digest")
	}
	return bloom.UnmarshalFilter(data)
}

func (c *Client) expectReply(req *memproto.Request, want string) error {
	return c.roundTrip(req, func(br *bufio.Reader) error {
		reply, err := memproto.ReadReply(br)
		if err != nil {
			return err
		}
		if reply != want {
			return fmt.Errorf("cacheclient: unexpected reply %q (want %q)", reply, want)
		}
		return nil
	})
}

func (c *Client) storedReply(req *memproto.Request) (bool, error) {
	var stored bool
	err := c.roundTrip(req, func(br *bufio.Reader) error {
		reply, err := memproto.ReadReply(br)
		if err != nil {
			return err
		}
		stored = reply == memproto.ReplyStored
		return nil
	})
	return stored, err
}
