package sim

import (
	"testing"
	"time"
)

func TestSourceLatencyBreakdown(t *testing.T) {
	t.Parallel()
	res := runScenario(t, ScenarioProteus)
	hit := res.SourceLatency(SourceHit)
	mig := res.SourceLatency(SourceMigrated)
	db := res.SourceLatency(SourceDB)

	if hit.Count() == 0 || mig.Count() == 0 || db.Count() == 0 {
		t.Fatalf("empty source histograms: hit=%d mig=%d db=%d",
			hit.Count(), mig.Count(), db.Count())
	}
	// Latency ordering: hit < migrated < database (each adds a hop or a
	// disk access).
	if !(hit.Mean() < mig.Mean() && mig.Mean() < db.Mean()) {
		t.Fatalf("source latency ordering violated: hit=%v migrated=%v db=%v",
			hit.Mean(), mig.Mean(), db.Mean())
	}
	// A migrated request costs two cache ops + a put, far below a DB
	// fetch.
	if mig.Mean() > db.Mean()/2 {
		t.Errorf("migration (%v) should be far cheaper than database (%v)", mig.Mean(), db.Mean())
	}
	if hit.Mean() > 10*time.Millisecond {
		t.Errorf("cache-hit mean %v implausibly slow", hit.Mean())
	}
	// Counts must be consistent with Stats (hits counted only when
	// measured, so allow the warmup gap).
	if hit.Count() > res.Stats.CacheHits {
		t.Errorf("measured hits %d exceed total hits %d", hit.Count(), res.Stats.CacheHits)
	}
	if mig.Count() > res.Stats.MigratedOnDemand {
		t.Errorf("measured migrations %d exceed total %d", mig.Count(), res.Stats.MigratedOnDemand)
	}
}

func TestSourceStrings(t *testing.T) {
	t.Parallel()
	if SourceHit.String() != "cache-hit" || SourceMigrated.String() != "migrated" || SourceDB.String() != "database" {
		t.Fatal("source names wrong")
	}
	if RequestSource(99).String() == "" {
		t.Fatal("unknown source has empty name")
	}
}
