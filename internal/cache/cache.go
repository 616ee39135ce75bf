// Package cache implements the in-memory key-value store at the heart of
// each Proteus cache server: a byte-bounded LRU with per-item TTL, the
// Go counterpart of the paper's modified memcached. Item link/unlink
// events are exposed as hooks so a counting Bloom filter digest can be
// kept exactly consistent with cache contents (the paper wires these to
// memcached's do_item_link / do_item_unlink).
//
// The store is sharded: keys are hash-routed to a power-of-two array of
// independently locked shards, each with its own LRU list and byte
// budget, so concurrent Get/Set traffic scales with cores instead of
// serializing behind one mutex (the striped-locking design of memcached
// itself and the MemC3 line of work). Global counters are atomics; the
// OnLink/OnUnlink hooks fire under the owning shard's lock, preserving
// the exact digest-residency invariant per shard.
package cache

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// itemOverhead approximates memcached's per-item bookkeeping cost, added
// to key+value length when accounting bytes.
const itemOverhead = 48

// DefaultShards is the shard count selected by Config.Shards == 0. It
// is a fixed constant — not derived from GOMAXPROCS — so that replayed
// workloads (the DES, fig6) behave identically on every machine.
const DefaultShards = 16

// Config configures a Cache. Except for Clock — which is required —
// the zero value of every field is usable: unlimited size, no expiry,
// no hooks, DefaultShards shards.
type Config struct {
	// MaxBytes bounds the total accounted size (keys + values +
	// per-item overhead); 0 means unlimited. The budget is divided
	// evenly across shards and the least recently used items of a
	// shard are evicted to keep that shard within its share, so the
	// global bound always holds. With Shards > 1 eviction order is
	// therefore LRU per shard, not globally; replay experiments that
	// depend on exact global LRU (fig6, the DES) set Shards to 1.
	MaxBytes int64
	// DefaultTTL applies to Set calls with ttl == 0; 0 means items
	// never expire.
	DefaultTTL time.Duration
	// Clock supplies the current time and is required: this package is
	// replay-critical, so the caller must choose the time source
	// explicitly. The discrete-event simulator injects its virtual
	// clock; live-plane constructors (cacheserver) pass time.Now at
	// the wall-clock boundary.
	Clock func() time.Time
	// OnLink is invoked (under the owning shard's lock) whenever a key
	// becomes resident; OnUnlink whenever it stops being resident
	// (delete, eviction, expiry, or overwrite). Hooks must not call
	// back into the cache.
	OnLink   func(key string)
	OnUnlink func(key string)
	// Shards is the number of independently locked shards; it is
	// rounded up to a power of two. 0 selects DefaultShards. 1 gives
	// the exact global-LRU semantics of a single-mutex cache (used by
	// the deterministic replay planes and as the contention control in
	// benchmarks).
	Shards int
}

// Stats is a snapshot of cache counters, matching the memcached "stats"
// command fields the evaluation uses.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Sets        uint64
	Deletes     uint64
	Evictions   uint64
	Expirations uint64
	Items       int
	Bytes       int64
}

// HitRatio returns hits / (hits + misses), or 0 with no traffic.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

func (s Stats) String() string {
	return fmt.Sprintf("items=%d bytes=%d hits=%d misses=%d hit_ratio=%.4f evictions=%d expirations=%d",
		s.Items, s.Bytes, s.Hits, s.Misses, s.HitRatio(), s.Evictions, s.Expirations)
}

type entry struct {
	key        string
	value      []byte
	expires    time.Time // zero means never
	seq        uint64    // global access ordinal (Keys MRU ordering)
	cas        uint64    // unique token for check-and-set
	prev, next *entry    // intrusive LRU list
}

func (e *entry) size() int64 { return int64(len(e.key)) + int64(len(e.value)) + itemOverhead }

// counters holds the cache-wide statistics. Every field is an atomic so
// the hot path never touches a lock shared with other shards.
type counters struct {
	hits        atomic.Uint64
	misses      atomic.Uint64
	sets        atomic.Uint64
	deletes     atomic.Uint64
	evictions   atomic.Uint64
	expirations atomic.Uint64
}

// shard is one independently locked slice of the key space: its own
// map, its own intrusive LRU list, its own byte budget. The trailing
// pad keeps adjacent shards on separate cache lines so uncontended
// locks do not false-share.
type shard struct {
	mu       sync.Mutex
	items    map[string]*entry
	head     *entry // most recently used
	tail     *entry // least recently used
	bytes    int64
	maxBytes int64 // this shard's slice of Config.MaxBytes
	bounded  bool  // false when Config.MaxBytes == 0 (unlimited)
	_        [40]byte
}

// Cache is a thread-safe sharded LRU + TTL store.
type Cache struct {
	cfg    Config
	shards []shard
	mask   uint64

	ctr        counters
	casCounter atomic.Uint64
	accessSeq  atomic.Uint64
}

// New builds an empty cache. Config.Clock must be set: silently
// defaulting to the wall clock here is exactly the kind of hidden
// nondeterminism the replay contract (and proteuslint's transdeterminism
// analyzer) forbids, so a nil Clock panics like other unusable configs
// in this repository (cf. metrics.NewLatencySeries).
func New(cfg Config) *Cache {
	if cfg.Clock == nil {
		panic("cache: Config.Clock is required; pass time.Now at a live-plane boundary or the sim clock for replay")
	}
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
	}
	n = nextPow2(n)
	c := &Cache{cfg: cfg, shards: make([]shard, n), mask: uint64(n - 1)}
	var base, rem int64
	if cfg.MaxBytes > 0 {
		base, rem = cfg.MaxBytes/int64(n), cfg.MaxBytes%int64(n)
	}
	for i := range c.shards {
		budget := base
		if int64(i) < rem {
			budget = base + 1
		}
		s := &c.shards[i]
		s.items = make(map[string]*entry)
		s.bounded = cfg.MaxBytes > 0
		s.maxBytes = budget
	}
	return c
}

// nextPow2 rounds n up to the next power of two (n >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Shards returns the shard count the cache was built with.
func (c *Cache) Shards() int { return len(c.shards) }

// shardFor routes a key to its shard by FNV-1a hash. The hash is fixed
// and seedless so shard assignment — and therefore per-shard eviction —
// replays identically across runs and machines.
//
//lint:hotpath shard routing on every operation
func (c *Cache) shardFor(key string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h&c.mask]
}

// now is the configured clock.
func (c *Cache) now() time.Time { return c.cfg.Clock() }

// Get returns the value for key and whether it was resident and fresh.
// A hit refreshes the item's LRU position. The returned slice is the
// cache's own buffer; callers must not modify it.
//
//lint:hotpath the serving read path
func (c *Cache) Get(key string) ([]byte, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.items[key]
	if !ok {
		s.mu.Unlock()
		c.ctr.misses.Add(1)
		return nil, false
	}
	now := c.now()
	if e.expired(now) {
		c.removeLocked(s, e, &c.ctr.expirations)
		s.mu.Unlock()
		c.ctr.misses.Add(1)
		return nil, false
	}
	e.seq = c.accessSeq.Add(1)
	s.moveToFrontLocked(e)
	value := e.value
	s.mu.Unlock()
	c.ctr.hits.Add(1)
	return value, true
}

// Peek returns the value without refreshing recency or counting a
// hit/miss; used by inspection paths.
func (c *Cache) Peek(key string) ([]byte, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[key]
	if !ok || e.expired(c.now()) {
		return nil, false
	}
	return e.value, true
}

// Contains reports residency (fresh, non-expired) without stat effects.
func (c *Cache) Contains(key string) bool {
	_, ok := c.Peek(key)
	return ok
}

// Set stores value under key. ttl == 0 applies the configured default;
// a negative ttl stores an already-expired item (useful in tests). The
// value slice is retained; callers must not modify it afterwards.
func (c *Cache) Set(key string, value []byte, ttl time.Duration) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	c.setLocked(s, key, value, ttl)
}

// Add stores value only if key is not already resident (memcached
// "add"), reporting whether it stored.
func (c *Cache) Add(key string, value []byte, ttl time.Duration) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[key]; ok && !e.expired(c.now()) {
		return false
	}
	c.setLocked(s, key, value, ttl)
	return true
}

// Replace stores value only if key is already resident (memcached
// "replace"), reporting whether it stored.
func (c *Cache) Replace(key string, value []byte, ttl time.Duration) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[key]; !ok || e.expired(c.now()) {
		return false
	}
	c.setLocked(s, key, value, ttl)
	return true
}

// setLocked stores into s, which must be key's shard and locked by the
// caller.
func (c *Cache) setLocked(s *shard, key string, value []byte, ttl time.Duration) {
	now := c.now()
	if ttl == 0 {
		ttl = c.cfg.DefaultTTL
	}
	var expires time.Time
	if ttl != 0 {
		expires = now.Add(ttl)
	}
	if old, ok := s.items[key]; ok {
		c.removeLocked(s, old, nil)
	}
	e := &entry{
		key: key, value: value, expires: expires,
		seq: c.accessSeq.Add(1), cas: c.casCounter.Add(1),
	}
	s.items[key] = e
	s.pushFrontLocked(e)
	s.bytes += e.size()
	c.ctr.sets.Add(1)
	if c.cfg.OnLink != nil {
		c.cfg.OnLink(key)
	}
	c.evictLocked(s)
}

// Delete removes key, reporting whether it was resident.
func (c *Cache) Delete(key string) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[key]
	if !ok {
		return false
	}
	c.removeLocked(s, e, nil)
	c.ctr.deletes.Add(1)
	return true
}

// Touch resets the TTL of a resident key, reporting success.
func (c *Cache) Touch(key string, ttl time.Duration) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[key]
	now := c.now()
	if !ok || e.expired(now) {
		return false
	}
	if ttl == 0 {
		ttl = c.cfg.DefaultTTL
	}
	if ttl == 0 {
		e.expires = time.Time{}
	} else {
		e.expires = now.Add(ttl)
	}
	e.seq = c.accessSeq.Add(1)
	s.moveToFrontLocked(e)
	return true
}

// FlushAll removes every item (memcached flush_all).
func (c *Cache) FlushAll() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, e := range s.items {
			if c.cfg.OnUnlink != nil {
				c.cfg.OnUnlink(e.key)
			}
		}
		s.items = make(map[string]*entry)
		s.head, s.tail, s.bytes = nil, nil, 0
		s.mu.Unlock()
	}
}

// ExpireSweep removes all items whose TTL has passed and returns how
// many were dropped. Expiry is otherwise lazy (checked on access).
func (c *Cache) ExpireSweep() int {
	dropped := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		now := c.now()
		for e := s.tail; e != nil; {
			prev := e.prev
			if e.expired(now) {
				c.removeLocked(s, e, &c.ctr.expirations)
				dropped++
			}
			e = prev
		}
		s.mu.Unlock()
	}
	return dropped
}

// Len returns the number of resident items (including not-yet-swept
// expired ones).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Bytes returns the accounted size of resident items.
func (c *Cache) Bytes() int64 {
	var b int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		b += s.bytes
		s.mu.Unlock()
	}
	return b
}

// Stats returns a snapshot of the counters. The counter fields are each
// atomically read; concurrent traffic may tick one counter between two
// reads, so the snapshot is per-field exact rather than globally
// instantaneous (same as memcached "stats" under load).
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:        c.ctr.hits.Load(),
		Misses:      c.ctr.misses.Load(),
		Sets:        c.ctr.sets.Load(),
		Deletes:     c.ctr.deletes.Load(),
		Evictions:   c.ctr.evictions.Load(),
		Expirations: c.ctr.expirations.Load(),
	}
	s.Items = c.Len()
	s.Bytes = c.Bytes()
	return s
}

// Keys returns all resident keys in most-recently-used-first order
// across every shard (ordered by the global access ordinal each hit or
// store assigns).
func (c *Cache) Keys() []string {
	type keySeq struct {
		key string
		seq uint64
	}
	var all []keySeq
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for e := s.head; e != nil; e = e.next {
			all = append(all, keySeq{e.key, e.seq})
		}
		s.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq > all[j].seq })
	out := make([]string, len(all))
	for i, ks := range all {
		out[i] = ks.key
	}
	return out
}

func (e *entry) expired(now time.Time) bool {
	return !e.expires.IsZero() && !now.Before(e.expires)
}

// removeLocked unlinks e from s's map and list, fires OnUnlink, and
// bumps the optional counter (used for eviction/expiry stats). s must
// be locked by the caller.
func (c *Cache) removeLocked(s *shard, e *entry, counter *atomic.Uint64) {
	delete(s.items, e.key)
	s.unlinkLocked(e)
	s.bytes -= e.size()
	if counter != nil {
		counter.Add(1)
	}
	if c.cfg.OnUnlink != nil {
		c.cfg.OnUnlink(e.key)
	}
}

// evictLocked drops LRU items until s is within its byte budget.
func (c *Cache) evictLocked(s *shard) {
	if !s.bounded {
		return
	}
	for s.bytes > s.maxBytes && s.tail != nil {
		c.removeLocked(s, s.tail, &c.ctr.evictions)
	}
}

func (s *shard) pushFrontLocked(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard) moveToFrontLocked(e *entry) {
	if s.head == e {
		return
	}
	s.unlinkLocked(e)
	s.pushFrontLocked(e)
}
