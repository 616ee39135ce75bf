// Package cacheserver implements the Proteus cache server: a TCP server
// speaking the memcached text protocol over an LRU+TTL store, with the
// paper's built-in counting Bloom filter digest. The digest is updated
// on every item link/unlink (the paper's do_item_link / do_item_unlink
// hooks) and exported through the two reserved keys the paper defines:
// a get for "SET_BLOOM_FILTER" snapshots the filter, and a get for
// "BLOOM_FILTER" retrieves the snapshot bit array as ordinary value
// data, so any stock memcached client can fetch a digest.
package cacheserver

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"sync"
	"time"

	"proteus/internal/bloom"
	"proteus/internal/cache"
	"proteus/internal/memproto"
	"proteus/internal/telemetry"
)

// Reserved keys from the paper's memcached modification.
const (
	// KeySnapshotDigest triggers a digest snapshot when fetched.
	KeySnapshotDigest = "SET_BLOOM_FILTER"
	// KeyFetchDigest retrieves the latest snapshot bytes when fetched.
	KeyFetchDigest = "BLOOM_FILTER"
)

// Version is reported by the "version" command.
const Version = "proteus-0.9.0"

// DefaultDigestParams sizes the digest per the paper's evaluation
// (512 KB of counters is "negligible false positive and false negative
// rate" for the per-server working set; Fig. 7/8).
var DefaultDigestParams = bloom.Params{
	Counters:    1 << 20,
	CounterBits: 4,
	Hashes:      4,
	Mode:        bloom.Saturate,
}

// Config configures a Server.
type Config struct {
	// Cache configures the backing store. OnLink/OnUnlink must be nil;
	// the server installs the digest hooks itself.
	Cache cache.Config
	// Digest configures the counting Bloom filter; zero value selects
	// DefaultDigestParams.
	Digest bloom.Params
	// Logger receives connection errors; nil disables logging.
	Logger *log.Logger
	// WrapConn, when non-nil, wraps every accepted connection before it
	// is served. The fault injector installs its server-side fault
	// points here (faultinject.Injector.WrapConn).
	WrapConn func(net.Conn) net.Conn
	// Telemetry receives per-command counters
	// (proteus_server_commands_total{cmd}). Optional.
	Telemetry *telemetry.Registry
	// Tracer records one span per served connection. Optional.
	Tracer *telemetry.Tracer
}

// Server is one cache node. Create with New, start with Serve or
// ListenAndServe, stop with Close.
type Server struct {
	cache    *cache.Cache
	logger   *log.Logger
	wrapConn func(net.Conn) net.Conn
	tracer   *telemetry.Tracer

	// cmdCounters is keyed by command and read-only after New, so the
	// per-request lookup takes no lock; cmdOther absorbs unknown
	// commands.
	cmdCounters map[memproto.Command]*telemetry.Counter
	cmdOther    *telemetry.Counter

	digestMu sync.Mutex
	digest   *bloom.CountingFilter
	snapshot []byte

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	startTime time.Time
}

// New builds a Server. The digest hooks are wired into the cache so the
// filter stays exactly consistent with cache contents.
func New(cfg Config) (*Server, error) {
	if cfg.Cache.OnLink != nil || cfg.Cache.OnUnlink != nil {
		return nil, errors.New("cacheserver: Cache.OnLink/OnUnlink are reserved for the digest")
	}
	params := cfg.Digest
	if params == (bloom.Params{}) {
		params = DefaultDigestParams
	}
	digest, err := bloom.NewCounting(params)
	if err != nil {
		return nil, fmt.Errorf("cacheserver: digest: %w", err)
	}
	s := &Server{
		digest:    digest,
		logger:    cfg.Logger,
		wrapConn:  cfg.WrapConn,
		tracer:    cfg.Tracer,
		conns:     make(map[net.Conn]struct{}),
		startTime: time.Now(),
	}
	cmds := cfg.Telemetry.Counter("proteus_server_commands_total",
		"memcached commands served, by command", "cmd")
	s.cmdCounters = make(map[memproto.Command]*telemetry.Counter)
	for _, cmd := range []memproto.Command{
		memproto.CmdGet, memproto.CmdGets, memproto.CmdCas,
		memproto.CmdAppend, memproto.CmdPrepend,
		memproto.CmdIncr, memproto.CmdDecr,
		memproto.CmdSet, memproto.CmdAdd, memproto.CmdReplace,
		memproto.CmdDelete, memproto.CmdTouch, memproto.CmdStats,
		memproto.CmdFlushAll, memproto.CmdVersion, memproto.CmdQuit,
	} {
		s.cmdCounters[cmd] = cmds.With(cmd.String())
	}
	s.cmdOther = cmds.With("other")
	cacheCfg := cfg.Cache
	cacheCfg.OnLink = s.onLink
	cacheCfg.OnUnlink = s.onUnlink
	if cacheCfg.Clock == nil {
		// The server is the live-plane wall-clock boundary; the cache
		// itself requires an explicit time source.
		cacheCfg.Clock = time.Now
	}
	s.cache = cache.New(cacheCfg)
	return s, nil
}

func (s *Server) onLink(key string) {
	s.digestMu.Lock()
	s.digest.Insert(key)
	s.digestMu.Unlock()
}

func (s *Server) onUnlink(key string) {
	s.digestMu.Lock()
	s.digest.Delete(key)
	s.digestMu.Unlock()
}

// Cache exposes the backing store (used by in-process harnesses and
// tests; network clients use the protocol).
func (s *Server) Cache() *cache.Cache { return s.cache }

// SnapshotDigest takes a digest snapshot and returns its encoding; the
// same bytes become fetchable via the BLOOM_FILTER key.
func (s *Server) SnapshotDigest() ([]byte, error) {
	s.digestMu.Lock()
	defer s.digestMu.Unlock()
	data, err := s.digest.Snapshot().MarshalBinary()
	if err != nil {
		return nil, err
	}
	s.snapshot = data
	return data, nil
}

// DigestContains queries the live counting filter (in-process fast path
// for the simulator; network callers fetch snapshots instead).
func (s *Server) DigestContains(key string) bool {
	s.digestMu.Lock()
	defer s.digestMu.Unlock()
	return s.digest.Contains(key)
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cacheserver: listen %s: %w", addr, err)
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. It returns nil after a
// graceful Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close() // refusing the listener; its close error is moot
		return errors.New("cacheserver: server already closed")
	}
	s.listener = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("cacheserver: accept: %w", err)
		}
		if s.wrapConn != nil {
			conn = s.wrapConn(conn)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close() // racing accept during shutdown
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Addr returns the listener address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

// Close stops accepting, closes all connections, and waits for handler
// goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.listener
	for conn := range s.conns {
		_ = conn.Close() // shutdown teardown is best-effort
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// connState is the per-connection scratch: buffered reader/writer plus
// the protocol parser with its reusable line/field/request scratch.
// Unlike the client, which borrows buffers per exchange, the server
// owns them for the life of the connection: its reader is parked in a
// blocking read between requests and needs the buffer to read into.
// Pooling connState means a connection churn storm (the load
// generator's reconnect loops, chaos tests) does not allocate fresh
// buffers per accept.
type connState struct {
	br *bufio.Reader
	bw *bufio.Writer
	p  *memproto.Parser
}

var connStatePool = sync.Pool{
	New: func() interface{} {
		cs := &connState{
			br: bufio.NewReaderSize(nil, memproto.WireBufSize),
			bw: bufio.NewWriterSize(nil, memproto.WireBufSize),
		}
		cs.p = memproto.NewParser(cs.br)
		return cs
	},
}

func (s *Server) serveConn(conn net.Conn) {
	sp := s.tracer.Start("server.conn")
	sp.SetAttr("remote", conn.RemoteAddr().String())
	cs := connStatePool.Get().(*connState)
	cs.br.Reset(conn)
	cs.bw.Reset(conn)
	defer func() {
		sp.End()
		conn.Close()
		// Drop the conn reference before pooling so the pool does not
		// pin closed sockets.
		cs.br.Reset(nil)
		cs.bw.Reset(nil)
		connStatePool.Put(cs)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	br, bw := cs.br, cs.bw
	for {
		req, err := cs.p.Next()
		if err != nil {
			if err == io.EOF {
				return
			}
			if errors.Is(err, memproto.ErrProtocol) || errors.Is(err, memproto.ErrBadKey) || errors.Is(err, memproto.ErrTooLarge) {
				// Report and drop the connection: after a framing error
				// the stream position is unreliable.
				_ = memproto.WriteClientError(bw, err.Error())
				_ = bw.Flush()
			}
			s.logf("conn %s: %v", conn.RemoteAddr(), err)
			return
		}
		quit, err := s.handle(bw, req)
		if err != nil {
			s.logf("conn %s: write: %v", conn.RemoteAddr(), err)
			return
		}
		// Flush unless more pipelined input is already buffered.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
		if quit {
			_ = bw.Flush()
			return
		}
	}
}

// handle executes one request, writing the response. The bool result
// requests connection shutdown (quit).
func (s *Server) handle(bw *bufio.Writer, req *memproto.Request) (bool, error) {
	if c, ok := s.cmdCounters[req.Command]; ok {
		c.Inc()
	} else {
		s.cmdOther.Inc()
	}
	switch req.Command {
	case memproto.CmdGet, memproto.CmdGets:
		withCAS := req.Command == memproto.CmdGets
		for _, key := range req.Keys {
			if err := s.handleGetKey(bw, key, withCAS); err != nil {
				return false, err
			}
		}
		return false, memproto.WriteEnd(bw)
	case memproto.CmdCas:
		var reply string
		switch s.cache.CompareAndSwap(req.Key(), req.Data, req.Exptime, req.CAS) {
		case cache.CASStored:
			reply = memproto.ReplyStored
		case cache.CASExists:
			reply = memproto.ReplyExists
		default:
			reply = memproto.ReplyNotFound
		}
		if req.NoReply {
			return false, nil
		}
		return false, memproto.WriteReply(bw, reply)
	case memproto.CmdAppend, memproto.CmdPrepend:
		var stored bool
		if req.Command == memproto.CmdAppend {
			stored = s.cache.Append(req.Key(), req.Data)
		} else {
			stored = s.cache.Prepend(req.Key(), req.Data)
		}
		if req.NoReply {
			return false, nil
		}
		reply := memproto.ReplyStored
		if !stored {
			reply = memproto.ReplyNotStored
		}
		return false, memproto.WriteReply(bw, reply)
	case memproto.CmdIncr, memproto.CmdDecr:
		var (
			next  uint64
			found bool
			err   error
		)
		if req.Command == memproto.CmdIncr {
			next, found, err = s.cache.Increment(req.Key(), req.Delta)
		} else {
			next, found, err = s.cache.Decrement(req.Key(), req.Delta)
		}
		if req.NoReply {
			return false, nil
		}
		switch {
		case err != nil:
			return false, memproto.WriteClientError(bw, "cannot increment or decrement non-numeric value")
		case !found:
			return false, memproto.WriteReply(bw, memproto.ReplyNotFound)
		default:
			return false, memproto.WriteNumber(bw, next)
		}
	case memproto.CmdSet, memproto.CmdAdd, memproto.CmdReplace:
		stored := s.store(req)
		if req.NoReply {
			return false, nil
		}
		reply := memproto.ReplyStored
		if !stored {
			reply = memproto.ReplyNotStored
		}
		return false, memproto.WriteReply(bw, reply)
	case memproto.CmdDelete:
		deleted := s.cache.Delete(req.Key())
		if req.NoReply {
			return false, nil
		}
		reply := memproto.ReplyDeleted
		if !deleted {
			reply = memproto.ReplyNotFound
		}
		return false, memproto.WriteReply(bw, reply)
	case memproto.CmdTouch:
		touched := s.cache.Touch(req.Key(), expDuration(req.Exptime))
		if req.NoReply {
			return false, nil
		}
		reply := memproto.ReplyTouched
		if !touched {
			reply = memproto.ReplyNotFound
		}
		return false, memproto.WriteReply(bw, reply)
	case memproto.CmdStats:
		return false, memproto.WriteStats(bw, s.statsMap())
	case memproto.CmdFlushAll:
		s.cache.FlushAll()
		if req.NoReply {
			return false, nil
		}
		return false, memproto.WriteReply(bw, memproto.ReplyOK)
	case memproto.CmdVersion:
		return false, memproto.WriteReply(bw, "VERSION "+Version)
	case memproto.CmdQuit:
		return true, nil
	default:
		return false, memproto.WriteReply(bw, memproto.ReplyError)
	}
}

//lint:hotpath per-key GET handling
func (s *Server) handleGetKey(bw *bufio.Writer, key string, withCAS bool) error {
	switch key {
	case KeySnapshotDigest:
		//lint:allow hotalloc the digest admin key is off the data path; marshaling the snapshot allocates by design
		data, err := s.SnapshotDigest()
		if err != nil {
			return memproto.WriteServerError(bw, "digest snapshot failed")
		}
		return memproto.WriteValue(bw, memproto.Value{
			Key: key,
			//lint:allow hotalloc the digest admin key is off the data path; formatting its one-line reply per request is fine
			Data: []byte(strconv.Itoa(len(data))),
		})
	case KeyFetchDigest:
		s.digestMu.Lock()
		data := s.snapshot
		s.digestMu.Unlock()
		if data == nil {
			return nil // no snapshot taken: behaves as a miss
		}
		return memproto.WriteValue(bw, memproto.Value{Key: key, Data: data})
	default:
		if withCAS {
			value, cas, ok := s.cache.GetWithCAS(key)
			if !ok {
				return nil
			}
			return memproto.WriteValue(bw, memproto.Value{Key: key, Data: value, CAS: cas, HasCAS: true})
		}
		value, ok := s.cache.Get(key)
		if !ok {
			return nil
		}
		return memproto.WriteValue(bw, memproto.Value{Key: key, Data: value})
	}
}

func (s *Server) store(req *memproto.Request) bool {
	ttl := expDuration(req.Exptime)
	switch req.Command {
	case memproto.CmdAdd:
		return s.cache.Add(req.Key(), req.Data, ttl)
	case memproto.CmdReplace:
		return s.cache.Replace(req.Key(), req.Data, ttl)
	default:
		s.cache.Set(req.Key(), req.Data, ttl)
		return true
	}
}

// expDuration maps memcached exptime seconds to a cache TTL. A negative
// exptime expires immediately (memcached semantics).
func expDuration(exptime int64) time.Duration {
	if exptime < 0 {
		return -time.Nanosecond
	}
	return time.Duration(exptime) * time.Second
}

func (s *Server) statsMap() map[string]string {
	st := s.cache.Stats()
	s.digestMu.Lock()
	digestKeys := s.digest.Keys()
	saturated := s.digest.SaturatedCounters()
	s.digestMu.Unlock()
	return map[string]string{
		"version":           Version,
		"uptime":            strconv.FormatInt(int64(time.Since(s.startTime).Seconds()), 10),
		"curr_items":        strconv.Itoa(st.Items),
		"bytes":             strconv.FormatInt(st.Bytes, 10),
		"get_hits":          strconv.FormatUint(st.Hits, 10),
		"get_misses":        strconv.FormatUint(st.Misses, 10),
		"cmd_set":           strconv.FormatUint(st.Sets, 10),
		"delete_hits":       strconv.FormatUint(st.Deletes, 10),
		"evictions":         strconv.FormatUint(st.Evictions, 10),
		"expired_unfetched": strconv.FormatUint(st.Expirations, 10),
		"digest_keys":       strconv.Itoa(digestKeys),
		"digest_saturated":  strconv.Itoa(saturated),
	}
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}
