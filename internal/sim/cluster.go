package sim

import (
	"errors"
	"math/rand"
	"time"

	"proteus/internal/bloom"
	"proteus/internal/cache"
	"proteus/internal/database"
	"proteus/internal/faultinject"
	"proteus/internal/wiki"
)

// serviceQueue models a component with c parallel executors and FCFS
// queueing in virtual time: a request arriving at `now` starts when the
// earliest executor frees up and holds it for `service`.
type serviceQueue struct {
	freeAt []time.Duration
	busy   time.Duration // total service time executed (for utilisation)
}

func newServiceQueue(concurrency int) *serviceQueue {
	return &serviceQueue{freeAt: make([]time.Duration, concurrency)}
}

// schedule books a job and returns its completion time.
func (q *serviceQueue) schedule(now, service time.Duration) time.Duration {
	best := 0
	for i, f := range q.freeAt {
		if f < q.freeAt[best] {
			best = i
		}
	}
	start := now
	if q.freeAt[best] > start {
		start = q.freeAt[best]
	}
	done := start + service
	q.freeAt[best] = done
	q.busy += service
	return done
}

// takeBusy returns the service time accumulated since the last call —
// the numerator of a utilisation sample.
func (q *serviceQueue) takeBusy() time.Duration {
	b := q.busy
	q.busy = 0
	return b
}

// nodeState is a cache server's power state.
type nodeState int

const (
	nodeOff nodeState = iota
	nodeBooting
	nodeOn
)

// cacheNode is one simulated cache server: a real cache.Cache (LRU +
// TTL under the virtual clock) with the paper's counting Bloom filter
// digest wired to item link/unlink, plus a service-time model.
type cacheNode struct {
	id     int
	store  *cache.Cache
	digest *bloom.CountingFilter
	queue  *serviceQueue
	state  nodeState
}

func newCacheNode(eng *Engine, id int, capacityBytes int64, ttl time.Duration, digestParams bloom.Params, concurrency int) (*cacheNode, error) {
	digest, err := bloom.NewCounting(digestParams)
	if err != nil {
		return nil, err
	}
	n := &cacheNode{id: id, digest: digest, queue: newServiceQueue(concurrency), state: nodeOff}
	n.store = cache.New(cache.Config{
		MaxBytes:   capacityBytes,
		DefaultTTL: ttl,
		Clock:      eng.Clock(),
		OnLink:     func(key string) { n.digest.Insert(key) },
		OnUnlink:   func(key string) { n.digest.Delete(key) },
		// The DES is single-threaded, so sharding buys nothing; one
		// shard keeps the paper's exact global-LRU eviction order in
		// every replay.
		Shards: 1,
	})
	return n, nil
}

// powerOff drops the node's in-memory data — the paper's "if we turn
// off the Memcached servers brutally, we will lose a considerable
// amount of in-cache data".
func (n *cacheNode) powerOff() {
	n.store.FlushAll()
	n.state = nodeOff
}

// snapshotDigest is the transition-start broadcast.
func (n *cacheNode) snapshotDigest() *bloom.Filter {
	return n.digest.Snapshot()
}

// fleet is the simulated servers as the shared Section IV machine
// (transition.Fleet) sees them; both DES drivers provision through it.
type fleet struct {
	nodes []*cacheNode
	// faults, when set, makes a partitioned server unreachable to the
	// control plane, as it is on the live plane. The figure runner
	// leaves it nil: its injector acts per request (runner.fault) and
	// its control plane sees power state only.
	faults *faultinject.Injector
	// noDigest refuses every snapshot (Config.DisableDigest): the flip
	// happens, every relocation source degrades to the database path.
	noDigest bool
}

var errUnreachable = errors.New("sim: server unreachable")

// reachable reports whether an operation against server i would
// succeed: powered on and not partitioned away.
func (f *fleet) reachable(i int) bool {
	return f.nodes[i].state == nodeOn && (f.faults == nil || !f.faults.Partitioned(i))
}

func (f *fleet) PowerOn(i int) error {
	f.nodes[i].state = nodeOn
	return nil
}

func (f *fleet) PowerOff(i int) { f.nodes[i].powerOff() }

func (f *fleet) Digest(i int) (*bloom.Filter, error) {
	if f.noDigest || !f.reachable(i) {
		return nil, errUnreachable
	}
	return f.nodes[i].snapshotDigest(), nil
}

func (f *fleet) Ping(i int) error {
	if !f.reachable(i) {
		return errUnreachable
	}
	return nil
}

// Get, Set, Delete and MultiGet are one server's store by index. An off
// or partitioned server answers errUnreachable, exactly as a live
// protocol client does; the machine's hot-set sync and the web tier's
// Algorithm 2 (through Tier) both degrade on it. Get ignores buf: the
// store hands back the slice it holds.
func (f *fleet) Get(i int, key string, _ []byte) ([]byte, bool, error) {
	if !f.reachable(i) {
		return nil, false, errUnreachable
	}
	v, ok := f.nodes[i].store.Get(key)
	return v, ok, nil
}

func (f *fleet) Set(i int, key string, value []byte) error {
	if !f.reachable(i) {
		return errUnreachable
	}
	f.nodes[i].store.Set(key, value, 0)
	return nil
}

func (f *fleet) Delete(i int, key string) (bool, error) {
	if !f.reachable(i) {
		return false, errUnreachable
	}
	return f.nodes[i].store.Delete(key), nil
}

func (f *fleet) MultiGet(i int, keys ...string) (map[string][]byte, error) {
	if !f.reachable(i) {
		return nil, errUnreachable
	}
	got := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if v, ok := f.nodes[i].store.Get(k); ok {
			got[k] = v
		}
	}
	return got, nil
}

// dbModel is the database tier in virtual time: per-shard bounded
// concurrency with FCFS queueing, reusing the real tier's latency
// model. Saturating these queues is what turns a re-mapping storm into
// the paper's Fig. 9 delay spike.
type dbModel struct {
	corpus  *wiki.Corpus
	shards  []*serviceQueue
	latency database.LatencyModel
	rng     *rand.Rand
	queries uint64
}

func newDBModel(corpus *wiki.Corpus, shards, concurrencyPerShard int, latency database.LatencyModel, seed int64) *dbModel {
	m := &dbModel{
		corpus:  corpus,
		shards:  make([]*serviceQueue, shards),
		latency: latency,
		rng:     rand.New(rand.NewSource(seed)),
	}
	for i := range m.shards {
		m.shards[i] = newServiceQueue(concurrencyPerShard)
	}
	return m
}

// fetch books a query for the page and returns its completion time.
func (m *dbModel) fetch(now time.Duration, pageIndex int) time.Duration {
	shard := m.shards[pageIndex%len(m.shards)]
	service := m.latency.ServiceTime(m.corpus.Size(pageIndex), m.rng)
	m.queries++
	return shard.schedule(now, service)
}
