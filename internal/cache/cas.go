package cache

import (
	"strconv"
	"time"
)

// This file adds the remaining memcached storage semantics: CAS
// (check-and-set), numeric increment/decrement, and append/prepend.
// They are part of the protocol surface the paper's web tier builds on
// (spymemcached and python-memcached, the clients the paper validates
// against, exercise all of them). Every operation touches exactly one
// shard — the one owning its key — so these paths scale with the
// sharded hot path.

// CASResult is the outcome of a CompareAndSwap.
type CASResult int

const (
	// CASStored means the swap succeeded.
	CASStored CASResult = iota + 1
	// CASExists means the item changed since the token was fetched.
	CASExists
	// CASNotFound means the key is not resident.
	CASNotFound
)

// GetWithCAS is Get plus the item's CAS token (memcached "gets").
func (c *Cache) GetWithCAS(key string) (value []byte, cas uint64, ok bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, found := s.items[key]
	if !found {
		s.mu.Unlock()
		c.ctr.misses.Add(1)
		return nil, 0, false
	}
	now := c.now()
	if e.expired(now) {
		c.removeLocked(s, e, &c.ctr.expirations)
		s.mu.Unlock()
		c.ctr.misses.Add(1)
		return nil, 0, false
	}
	e.seq = c.accessSeq.Add(1)
	s.moveToFrontLocked(e)
	value, cas = e.value, e.cas
	s.mu.Unlock()
	c.ctr.hits.Add(1)
	return value, cas, true
}

// CompareAndSwap stores value only if the item's CAS token still equals
// cas (memcached "cas").
func (c *Cache) CompareAndSwap(key string, value []byte, ttl0 int64, cas uint64) CASResult {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, found := s.items[key]
	if !found || e.expired(c.now()) {
		return CASNotFound
	}
	if e.cas != cas {
		return CASExists
	}
	c.setLocked(s, key, value, secondsTTL(ttl0))
	return CASStored
}

// Increment adds delta to a numeric value (memcached "incr"),
// returning the new value. ok is false when the key is absent;
// errNotNumber when the stored value is not an unsigned decimal.
func (c *Cache) Increment(key string, delta uint64) (uint64, bool, error) {
	return c.arith(key, delta, true)
}

// Decrement subtracts delta, clamping at 0 (memcached semantics).
func (c *Cache) Decrement(key string, delta uint64) (uint64, bool, error) {
	return c.arith(key, delta, false)
}

// ErrNotNumber reports incr/decr on a non-numeric value.
var ErrNotNumber = errNotNumber{}

type errNotNumber struct{}

func (errNotNumber) Error() string {
	return "cache: cannot increment or decrement non-numeric value"
}

func (c *Cache) arith(key string, delta uint64, up bool) (uint64, bool, error) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, found := s.items[key]
	if !found || e.expired(c.now()) {
		return 0, false, nil
	}
	cur, err := strconv.ParseUint(string(e.value), 10, 64)
	if err != nil {
		return 0, true, ErrNotNumber
	}
	var next uint64
	if up {
		next = cur + delta // wraps at 2^64 like memcached
	} else if cur < delta {
		next = 0
	} else {
		next = cur - delta
	}
	// In-place value update: keeps expiry, refreshes recency and CAS.
	s.bytes += int64(len(strconv.FormatUint(next, 10))) - int64(len(e.value))
	e.value = []byte(strconv.FormatUint(next, 10))
	e.seq = c.accessSeq.Add(1)
	e.cas = c.casCounter.Add(1)
	s.moveToFrontLocked(e)
	return next, true, nil
}

// Append concatenates data after an existing value (memcached
// "append"), reporting whether the key was resident.
func (c *Cache) Append(key string, data []byte) bool {
	return c.concat(key, data, true)
}

// Prepend concatenates data before an existing value.
func (c *Cache) Prepend(key string, data []byte) bool {
	return c.concat(key, data, false)
}

func (c *Cache) concat(key string, data []byte, after bool) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, found := s.items[key]
	if !found || e.expired(c.now()) {
		return false
	}
	joined := make([]byte, 0, len(e.value)+len(data))
	if after {
		joined = append(append(joined, e.value...), data...)
	} else {
		joined = append(append(joined, data...), e.value...)
	}
	s.bytes += int64(len(joined)) - int64(len(e.value))
	e.value = joined
	e.seq = c.accessSeq.Add(1)
	e.cas = c.casCounter.Add(1)
	s.moveToFrontLocked(e)
	c.evictLocked(s)
	return true
}

// secondsTTL converts memcached exptime seconds to a duration for the
// internal API (negative = already expired).
func secondsTTL(exptime int64) time.Duration {
	if exptime < 0 {
		return -time.Nanosecond
	}
	return time.Duration(exptime) * time.Second
}
