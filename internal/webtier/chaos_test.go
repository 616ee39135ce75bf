package webtier

import (
	"testing"

	"proteus/internal/cluster"
	"proteus/internal/faultinject"
	"proteus/internal/livestack/livecluster"
	"proteus/internal/testutil"
	"proteus/internal/wiki"
)

// chaosEnv is a live TCP stack (cache servers, coordinator, frontend)
// with the fault injector wired into the client dialers and the
// coordinator's transition hook.
type chaosEnv struct {
	coord  *cluster.Coordinator
	front  *Frontend
	corpus *wiki.Corpus
	timer  *testutil.ManualTimer
	inj    *faultinject.Injector
}

// crashedServer is the fixed provisioning-order index that the chaos
// schedule crashes at the first transition. In a 4 -> 3 shrink it is
// the dying server: the one whose still-hot data Algorithm 2 would
// migrate on demand — losing it mid-transition is the worst case.
const crashedServer = 3

func newChaosEnv(t *testing.T, seed int64) *chaosEnv {
	t.Helper()
	inj := faultinject.New(seed,
		// ~1% of client writes fail mid-request: broken connections,
		// discarded pool entries, retries.
		faultinject.Rule{Server: faultinject.AnyServer, Op: faultinject.OpWrite, Kind: faultinject.KindError, P: 0.01},
		// The dying server crashes the instant the first transition's
		// routing table is installed.
		faultinject.Rule{Server: crashedServer, Op: faultinject.OpTransition, Kind: faultinject.KindCrash, At: 1},
	)
	e := buildEnv(t,
		livecluster.Config{Nodes: 4, Cluster: cluster.Config{Replicas: 2, Faults: inj}, Seed: seed},
		envShape{pages: 400})
	return &chaosEnv{coord: e.coord, front: e.front, corpus: e.corpus, timer: e.timer, inj: inj}
}

// chaosRun executes the chaos scenario once and returns the frontend
// stats plus the injector's fired-fault schedule: warm the corpus at
// r=2 over 4 servers, shrink to 3 — which crashes the dying server
// mid-transition — then sweep every key twice.
func chaosRun(t *testing.T, seed int64) (Stats, []faultinject.Event) {
	t.Helper()
	e := newChaosEnv(t, seed)

	sweep := func(phase string) {
		for i := 0; i < e.corpus.Pages(); i++ {
			key := e.corpus.Key(i)
			data, _, err := e.front.Fetch(key)
			if err != nil {
				t.Fatalf("%s: fetch %s: %v", phase, key, err)
			}
			want, _ := e.corpus.PageByKey(key)
			if string(data) != string(want) {
				t.Fatalf("%s: wrong body for %s", phase, key)
			}
		}
	}

	sweep("warm")
	if err := e.coord.SetActive(3); err != nil {
		t.Fatal(err)
	}
	sweep("post-crash")
	migratedAfterFirst := e.front.Stats().Migrated
	sweep("steady")

	s := e.front.Stats()

	// The crash rule must actually have fired.
	crashed := false
	for _, ev := range e.inj.Events() {
		if ev.Kind == faultinject.KindCrash && ev.Server == crashedServer {
			crashed = true
		}
	}
	if !crashed {
		t.Fatal("crash rule never fired")
	}

	// Zero client-visible errors: every fault was absorbed by a retry,
	// a replica ring, or the database fallthrough.
	if s.Errors != 0 {
		t.Fatalf("frontend surfaced %d client errors (stats %+v)", s.Errors, s)
	}
	if s.CacheErrors == 0 {
		t.Fatal("no cache-tier faults recorded; the schedule injected nothing")
	}
	if s.ReplicaHits == 0 {
		t.Fatal("no replica hits; ring fallthrough never engaged")
	}

	// Each still-hot key was served exactly once per sweep, from cache
	// or database — never lost. The crashed server held every moved
	// key's old copy, so r=2 replicas plus the DB must have covered
	// them: the post-crash DB leak stays a fraction of the corpus.
	pages := uint64(e.corpus.Pages())
	if leaked := s.DBFetches - pages; leaked > pages/4 {
		t.Fatalf("post-crash sweeps leaked %d of %d keys to the database", leaked, pages)
	}

	// No double migration: once a key is installed on its new owner,
	// later requests hit there. The steady sweep may re-migrate only
	// keys whose install was itself faulted.
	if re := s.Migrated - migratedAfterFirst; re > pages/20 {
		t.Fatalf("steady sweep re-migrated %d keys", re)
	}
	return s, e.inj.Events()
}

// A cache server crashes mid-transition while ~1% of client writes
// fail, on the live TCP stack with r=2 replication: no request fails,
// no key is lost, nothing migrates twice.
func TestChaosCrashMidTransitionTCP(t *testing.T) {
	chaosRun(t, 42)
}

// Same seed, same fault schedule, same outcome — the injector's
// decisions are pure functions of (seed, rule, match ordinal), and the
// single-goroutine sweep fixes the match order.
func TestChaosDeterministicTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("double chaos run")
	}
	s1, ev1 := chaosRun(t, 7)
	s2, ev2 := chaosRun(t, 7)
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
