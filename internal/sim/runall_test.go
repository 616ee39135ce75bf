package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"proteus/internal/faultinject"
	"proteus/internal/testutil"
)

// runTwice runs two copies of one configuration side by side through
// RunAll. build is called once per copy, so each copy gets its own
// fault injector and policy.
func runTwice(t *testing.T, build func() Config) (a, b *Result) {
	t.Helper()
	res, err := RunAll(build(), build())
	if err != nil {
		t.Fatal(err)
	}
	return res[0], res[1]
}

// smallConfig is a run that takes milliseconds: one simulated minute
// over a 2000-page corpus.
func smallConfig(t testing.TB, scenario Scenario) Config {
	t.Helper()
	cfg := NewConfig(scenario, testutil.NewCorpus(t, 2000, 64), time.Minute, 100)
	cfg.CachePagesPerServer = 200
	return cfg
}

// withProcs runs f under each GOMAXPROCS setting RunAll distinguishes:
// one (the sequential schedule) and two (the goroutine pool). It
// changes a process-wide setting, so its callers must not be parallel.
func withProcs(t *testing.T, f func(t *testing.T)) {
	for _, tc := range []struct {
		name  string
		procs int
	}{{"sequential", 1}, {"pool", 2}} {
		prev := runtime.GOMAXPROCS(tc.procs)
		t.Run(tc.name, f)
		runtime.GOMAXPROCS(prev)
	}
}

// RunAll's results are Run's results, in input order, under both
// schedules.
func TestRunAllMatchesRunInInputOrder(t *testing.T) {
	var cfgs []Config
	for _, s := range []Scenario{ScenarioProteus, ScenarioStatic, ScenarioNaive, ScenarioConsistent, ScenarioProteus} {
		cfgs = append(cfgs, smallConfig(t, s))
	}
	cfgs[4].Seed = 2
	var want []*Result
	for _, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	withProcs(t, func(t *testing.T) {
		got, err := RunAll(cfgs...)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d results for %d configs", len(got), len(want))
		}
		for i := range want {
			if got[i].Scenario != cfgs[i].Scenario || got[i].Stats != want[i].Stats ||
				got[i].Meter.EnergyWh("cache") != want[i].Meter.EnergyWh("cache") {
				t.Errorf("result %d: %v %+v, want Run's %v %+v",
					i, got[i].Scenario, got[i].Stats, want[i].Scenario, want[i].Stats)
			}
		}
	})
}

// The lowest-index failure is the one reported, as Run reported it,
// wherever the other failures sit and whichever finishes first.
func TestRunAllReturnsLowestIndexError(t *testing.T) {
	good := smallConfig(t, ScenarioProteus)
	badScenario := smallConfig(t, Scenario(99))
	noCorpus := Config{}
	_, wantScenario := Run(badScenario)
	_, wantCorpus := Run(noCorpus)
	if wantScenario == nil || wantCorpus == nil || wantScenario.Error() == wantCorpus.Error() {
		t.Fatalf("fixture errors must be distinct and non-nil: %v, %v", wantScenario, wantCorpus)
	}
	withProcs(t, func(t *testing.T) {
		for _, tc := range []struct {
			cfgs []Config
			want error
		}{
			{[]Config{badScenario}, wantScenario},
			{[]Config{good, badScenario, noCorpus}, wantScenario},
			{[]Config{good, noCorpus, good, badScenario}, wantCorpus},
		} {
			res, err := RunAll(tc.cfgs...)
			if err == nil || err.Error() != tc.want.Error() {
				t.Errorf("RunAll error = %v, want %v", err, tc.want)
			}
			if res != nil {
				t.Errorf("RunAll returned results alongside error %v", err)
			}
		}
	})
	if res, err := RunAll(); err != nil || len(res) != 0 {
		t.Errorf("RunAll() = %v, %v; want no results, no error", res, err)
	}
}

// An injector's rule counters advance with every decision, so two runs
// sharing one would perturb each other. RunAll refuses before running
// anything.
func TestRunAllRefusesSharedInjector(t *testing.T) {
	t.Parallel()
	inj := faultinject.New(1, faultinject.Rule{
		Server: faultinject.AnyServer, Op: faultinject.OpGet, Kind: faultinject.KindError, P: 1,
	})
	a, b := smallConfig(t, ScenarioProteus), smallConfig(t, ScenarioProteus)
	a.Faults, b.Faults = inj, inj
	res, err := RunAll(smallConfig(t, ScenarioStatic), a, b)
	if err == nil || !strings.Contains(err.Error(), "configs 1 and 2 share one fault injector") {
		t.Fatalf("RunAll error = %v, want a shared-injector refusal", err)
	}
	if res != nil {
		t.Fatal("RunAll returned results for a refused batch")
	}
	if n := len(inj.Events()); n != 0 {
		t.Fatalf("the refused batch ran: the injector logged %d events", n)
	}
	if _, err := RunAll(a); err != nil {
		t.Fatal(err)
	}
	if len(inj.Events()) == 0 {
		t.Fatal("a run with the injector logged no events, so the check above shows nothing")
	}
}
