// Package database simulates the paper's backing store tier: 7 MySQL
// servers holding non-overlapping shards of the Wikipedia dump. Pages
// are served from the synthetic wiki corpus; what this package models
// faithfully is the tier's *performance envelope* — a per-request cost
// one to two orders of magnitude above a cache hit, and bounded
// per-shard concurrency so that a re-mapping storm (the paper's Naive
// transition) drives queueing delay through the roof. That overload
// behaviour is exactly what produces the Fig. 9 delay spikes.
package database

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"proteus/internal/wiki"
)

// ErrNotFound reports a key outside the corpus.
var ErrNotFound = errors.New("database: key not found")

// LatencyModel describes per-query service time: Base plus PerKB
// proportional cost, multiplied by an exponential jitter factor with
// the given mean (1.0 disables jitter).
type LatencyModel struct {
	Base       time.Duration
	PerKB      time.Duration
	JitterMean float64
}

// DefaultLatency approximates the paper's MySQL lookups (three index
// lookups plus a text read from disk).
var DefaultLatency = LatencyModel{
	Base:       12 * time.Millisecond,
	PerKB:      500 * time.Microsecond,
	JitterMean: 1.0,
}

// ServiceTime draws a service time for a page of the given size using
// the provided RNG (nil disables jitter).
func (m LatencyModel) ServiceTime(size int, rng *rand.Rand) time.Duration {
	d := m.Base + time.Duration(size)*m.PerKB/1024
	if rng != nil && m.JitterMean > 0 {
		d = time.Duration(float64(d) * (0.5 + m.JitterMean*rng.ExpFloat64()/2))
	}
	return d
}

// Config configures the tier.
type Config struct {
	// Shards is the number of database servers (the paper uses 7).
	Shards int
	// Corpus supplies page bodies; required.
	Corpus *wiki.Corpus
	// Latency models per-query service time; zero value selects
	// DefaultLatency.
	Latency LatencyModel
	// ConcurrencyPerShard bounds in-flight queries per shard (the
	// paper's InnoDB thread pool); excess queries queue. Default 8.
	ConcurrencyPerShard int
	// Sleep suspends the calling goroutine for the modelled service
	// time; nil uses time.Sleep. Tests inject instant sleeps; the
	// discrete-event simulator bypasses this package entirely and
	// reuses only the LatencyModel.
	Sleep func(time.Duration)
}

// Stats is a snapshot of tier counters.
type Stats struct {
	Queries   uint64
	NotFound  uint64
	BytesRead uint64
	// MaxQueueDepth is the high-water mark of queries waiting (not
	// yet executing) across all shards.
	MaxQueueDepth int
}

// DB is the sharded store. It is safe for concurrent use; Get blocks
// for the modelled service time.
type DB struct {
	cfg    Config
	shards []*shard

	mu    sync.Mutex
	stats Stats
}

type shard struct {
	sem     chan struct{}
	mu      sync.Mutex
	waiting int
	rng     *rand.Rand
}

// New builds the tier.
func New(cfg Config) (*DB, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("database: need at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.Corpus == nil {
		return nil, errors.New("database: corpus is required")
	}
	if cfg.Latency == (LatencyModel{}) {
		cfg.Latency = DefaultLatency
	}
	if cfg.ConcurrencyPerShard == 0 {
		cfg.ConcurrencyPerShard = 8
	}
	if cfg.ConcurrencyPerShard < 1 {
		return nil, fmt.Errorf("database: ConcurrencyPerShard must be >= 1, got %d", cfg.ConcurrencyPerShard)
	}
	if cfg.Sleep == nil {
		//lint:allow transdeterminism live-tier default at the wall-clock boundary; the DES never calls Sleep (it reuses LatencyModel, which is pure given its seeded rng)
		cfg.Sleep = time.Sleep
	}
	db := &DB{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	for i := range db.shards {
		db.shards[i] = &shard{
			sem: make(chan struct{}, cfg.ConcurrencyPerShard),
			rng: rand.New(rand.NewSource(int64(i) + 1)),
		}
	}
	return db, nil
}

// Shards returns the shard count.
func (db *DB) Shards() int { return len(db.shards) }

// ShardFor returns the shard index that stores the key. Pages are
// horizontally partitioned by index, mirroring the paper's 7
// non-overlapping MySQL shards.
func (db *DB) ShardFor(key string) (int, error) {
	i, ok := db.cfg.Corpus.Index(key)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return i % len(db.shards), nil
}

// Get fetches a page, blocking for the shard's queueing plus service
// time.
func (db *DB) Get(key string) ([]byte, error) {
	idx, ok := db.cfg.Corpus.Index(key)
	if !ok {
		db.mu.Lock()
		db.stats.NotFound++
		db.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	sh := db.shards[idx%len(db.shards)]

	sh.mu.Lock()
	sh.waiting++
	waiting := sh.waiting
	sh.mu.Unlock()
	db.mu.Lock()
	if waiting > db.stats.MaxQueueDepth {
		db.stats.MaxQueueDepth = waiting
	}
	db.mu.Unlock()

	sh.sem <- struct{}{} // acquire a connection slot
	sh.mu.Lock()
	sh.waiting--
	service := db.cfg.Latency.ServiceTime(db.cfg.Corpus.Size(idx), sh.rng)
	sh.mu.Unlock()

	db.cfg.Sleep(service)
	body := db.cfg.Corpus.Page(idx)
	<-sh.sem

	db.mu.Lock()
	db.stats.Queries++
	db.stats.BytesRead += uint64(len(body))
	db.mu.Unlock()
	return body, nil
}

// Stats returns a snapshot of tier counters.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.stats
}
