package sim

import (
	"testing"

	"proteus/internal/faultinject"
)

// chaosConfig mirrors the live-plane chaos scenario in the DES: ~1% of
// cache lookups fail and one low-index server (active at every plan
// level) crashes at the first smooth transition, under r=2 replication.
func chaosConfig(t testing.TB, seed int64) (Config, *faultinject.Injector) {
	t.Helper()
	inj := faultinject.New(seed,
		faultinject.Rule{Server: faultinject.AnyServer, Op: faultinject.OpGet, Kind: faultinject.KindError, P: 0.01},
		faultinject.Rule{Server: 2, Op: faultinject.OpTransition, Kind: faultinject.KindCrash, At: 1},
	)
	cfg := testConfig(t, ScenarioProteus)
	cfg.Replicas = 2
	cfg.Faults = inj
	return cfg, inj
}

// The DES plane absorbs the same chaos schedule the TCP plane runs: the
// run completes, replicas serve through the crash, and the injected
// faults show up as extra database load rather than failures.
func TestChaosCrashMidTransitionDES(t *testing.T) {
	t.Parallel()
	cfg, inj := chaosConfig(t, 42)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	crashed := false
	for _, ev := range inj.Events() {
		if ev.Kind == faultinject.KindCrash && ev.Server == 2 {
			crashed = true
		}
	}
	if !crashed {
		t.Fatal("crash rule never fired")
	}
	if res.Stats.Requests == 0 || res.Stats.CacheHits == 0 {
		t.Fatalf("degenerate run: %+v", res.Stats)
	}
	if res.Stats.ReplicaHits == 0 {
		t.Fatal("no replica hits; the crash was not absorbed through the rings")
	}

	// The injected get errors and the crash cost cache coverage, which
	// surfaces as database queries — not as lost requests.
	clean := testConfig(t, ScenarioProteus)
	clean.Replicas = 2
	cleanRes, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DBQueries <= cleanRes.Stats.DBQueries {
		t.Fatalf("chaos run did not raise DB load: %d vs %d",
			res.Stats.DBQueries, cleanRes.Stats.DBQueries)
	}
}

// Same seed, same virtual-time fault schedule, same measurements.
func TestChaosDeterministicDES(t *testing.T) {
	if testing.Short() {
		t.Skip("double chaos run")
	}
	t.Parallel()
	a, b := runTwice(t, func() Config {
		cfg, _ := chaosConfig(t, 7)
		return cfg
	})
	s1, ev1 := a.Stats, a.Config.Faults.Events()
	s2, ev2 := b.Stats, b.Config.Faults.Events()
	if s1 != s2 {
		t.Fatalf("stats diverged across identical seeds:\n%+v\n%+v", s1, s2)
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("fault schedules diverged: %d vs %d events", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("fault schedule diverged at %d: %v vs %v", i, ev1[i], ev2[i])
		}
	}
}
