package sim

import (
	"testing"
	"time"
)

func TestReplicatedRunServesFromReplicas(t *testing.T) {
	t.Parallel()
	cfg := testConfig(t, ScenarioProteus)
	cfg.Replicas = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ReplicaHits == 0 {
		t.Fatal("replicated run recorded no replica hits")
	}
	if hr := res.Stats.HitRatio(); hr < 0.6 {
		t.Fatalf("replicated hit ratio %.3f too low", hr)
	}
}

func TestUnreplicatedHasNoReplicaHits(t *testing.T) {
	t.Parallel()
	res, err := Run(testConfig(t, ScenarioProteus))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ReplicaHits != 0 {
		t.Fatalf("unreplicated run recorded %d replica hits", res.Stats.ReplicaHits)
	}
}

// A mid-run crash without replication produces a sustained database
// load increase; with replication the surviving copies absorb most of
// it.
func TestCrashAbsorbedByReplication(t *testing.T) {
	t.Parallel()
	base := func() Config {
		cfg := testConfig(t, ScenarioProteus)
		cfg.CrashAt = cfg.Duration / 2
		cfg.CrashServer = 2 // low index: active at every plan level
		return cfg
	}
	single, err := Run(base())
	if err != nil {
		t.Fatal(err)
	}
	cfgRep := base()
	cfgRep.Replicas = 2
	replicated, err := Run(cfgRep)
	if err != nil {
		t.Fatal(err)
	}
	noCrash, err := Run(testConfig(t, ScenarioProteus))
	if err != nil {
		t.Fatal(err)
	}

	if single.Stats.DBQueries <= noCrash.Stats.DBQueries {
		t.Fatalf("crash did not raise DB load: %d vs %d",
			single.Stats.DBQueries, noCrash.Stats.DBQueries)
	}
	crashCost := single.Stats.DBQueries - noCrash.Stats.DBQueries
	var repCost uint64
	if replicated.Stats.DBQueries > noCrash.Stats.DBQueries {
		repCost = replicated.Stats.DBQueries - noCrash.Stats.DBQueries
	}
	if repCost >= crashCost {
		t.Fatalf("replication did not absorb the crash: extra DB queries %d (r=2) vs %d (r=1)",
			repCost, crashCost)
	}
}

func TestCrashOnInactiveServerIsNoop(t *testing.T) {
	t.Parallel()
	cfg := testConfig(t, ScenarioProteus)
	cfg.CrashAt = time.Second
	cfg.CrashServer = cfg.CacheServers - 1 // likely off at the valley start
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestReplicatedDeterministic(t *testing.T) {
	t.Parallel()
	a, b := runTwice(t, func() Config {
		cfg := testConfig(t, ScenarioProteus)
		cfg.Replicas = 2
		return cfg
	})
	if a.Stats != b.Stats {
		t.Fatalf("replicated runs differ:\n%+v\n%+v", a.Stats, b.Stats)
	}
}
