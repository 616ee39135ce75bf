// Package testutil holds the shared test scaffolding that used to be
// duplicated across the cacheserver, webtier, and sim test suites:
// deterministic corpora and database tiers, the standard small digest
// parameters, a manual transition timer, and seeded RNG helpers.
//
// The package deliberately imports only leaf packages (bloom, wiki,
// database, workload) so that every test suite in the tree — including
// the internal test packages of cacheserver and cluster, which sit
// below the coordinator in the import graph — can use it without
// creating an import cycle. Cluster bring-up, which must import the
// coordinator itself, lives in livestack's cluster layer
// (internal/livestack/livecluster).
package testutil

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"proteus/internal/bloom"
	"proteus/internal/database"
	"proteus/internal/wiki"
)

// SmallDigest returns the counting-filter parameters the test suites
// standardise on: large enough that false positives stay rare over a
// few hundred keys, small enough to snapshot cheaply.
func SmallDigest() bloom.Params {
	return bloom.Params{Counters: 1 << 14, CounterBits: 4, Hashes: 4}
}

// NewCorpus builds a deterministic wiki corpus, failing the test on
// error.
func NewCorpus(t testing.TB, pages, pageSize int) *wiki.Corpus {
	t.Helper()
	corpus, err := wiki.New(pages, pageSize)
	if err != nil {
		t.Fatalf("testutil: corpus: %v", err)
	}
	return corpus
}

// NewDB builds a no-sleep database tier over the corpus: latency
// bookkeeping without wall-clock delays, the configuration every test
// that is not measuring latency wants.
func NewDB(t testing.TB, corpus *wiki.Corpus, shards int) *database.DB {
	t.Helper()
	db, err := database.New(database.Config{
		Shards: shards,
		Corpus: corpus,
		Sleep:  func(time.Duration) {},
	})
	if err != nil {
		t.Fatalf("testutil: database: %v", err)
	}
	return db
}

// Rand returns a seeded *rand.Rand. Tests must never touch the global
// math/rand source (the determinism contract of DESIGN.md §6); this
// helper makes the compliant idiom one call.
func Rand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// ManualTimer collects cluster.Config.After callbacks so tests control
// exactly when a transition's TTL window expires. Fire drains and runs
// every pending callback.
type ManualTimer struct {
	mu  sync.Mutex
	fns []func()
}

// After implements the cluster.Config.After signature. The returned
// cancel is a no-op: tests that registered a callback decide whether to
// fire it.
func (m *ManualTimer) After(d time.Duration, fn func()) func() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fns = append(m.fns, fn)
	return func() {}
}

// Fire runs and clears every pending callback.
func (m *ManualTimer) Fire() {
	m.mu.Lock()
	fns := m.fns
	m.fns = nil
	m.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}
