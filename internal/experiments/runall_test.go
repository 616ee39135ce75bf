package experiments

import (
	"sync"
	"testing"

	"proteus/internal/sim"
)

// RunScenarios runs the four Table II scenarios side by side; its
// results must be those of one sim.Run per scenario, in Scenarios()
// order.
func TestRunScenariosMatchesSequentialRuns(t *testing.T) {
	scale := Tiny()
	runs, err := RunScenarios(scale)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := scale.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs.Results) != len(sim.Scenarios()) {
		t.Fatalf("%d results, want %d", len(runs.Results), len(sim.Scenarios()))
	}
	for i, scenario := range sim.Scenarios() {
		want, err := sim.Run(scale.config(scenario, corpus))
		if err != nil {
			t.Fatal(err)
		}
		got := runs.Results[i]
		if got.Scenario != scenario {
			t.Fatalf("result %d is %v, want %v", i, got.Scenario, scenario)
		}
		if got.Stats != want.Stats {
			t.Errorf("%v: stats %+v, want sequential %+v", scenario, got.Stats, want.Stats)
		}
		if g, w := got.Meter.EnergyWh("cache"), want.Meter.EnergyWh("cache"); g != w {
			t.Errorf("%v: cache energy %v Wh, want sequential %v Wh", scenario, g, w)
		}
	}
}

// Two grids at once share nothing that changes: under -race this is
// the check that the runs inside and across RunScenarios calls are
// independent.
func TestRunScenariosConcurrentCalls(t *testing.T) {
	var wg sync.WaitGroup
	var runs [2]*ScenarioRuns
	var errs [2]error
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i], errs[i] = RunScenarios(Tiny())
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range runs[0].Results {
		if b := runs[1].Results[i]; a.Stats != b.Stats {
			t.Errorf("%v: concurrent grids differ:\n%+v\n%+v", a.Scenario, a.Stats, b.Stats)
		}
	}
}

// Section VI's qualitative claims hold at every seed, not only the one
// the figures print: the worst-slot p99.9 orders Proteus ≤ Consistent ≤
// Naive, every dynamic scenario spends less cache-tier energy than
// Static, and Proteus migrates keys on demand. A seed that breaks a
// claim is a finding about the design, not a threshold to tune.
func TestSectionVIClaimsHoldAtFiveSeeds(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		scale := Tiny()
		scale.Seed = seed
		runs, err := RunScenarios(scale)
		if err != nil {
			t.Fatal(err)
		}
		fig9 := Fig9(runs)
		proteus := fig9.WorstP999(sim.ScenarioProteus)
		consistent := fig9.WorstP999(sim.ScenarioConsistent)
		naive := fig9.WorstP999(sim.ScenarioNaive)
		if proteus > consistent || consistent > naive {
			t.Errorf("seed %d: worst p99.9 Proteus %v, Consistent %v, Naive %v; want Proteus ≤ Consistent ≤ Naive",
				seed, proteus, consistent, naive)
		}
		static := runs.Result(sim.ScenarioStatic).Meter.EnergyWh("cache")
		var dynamicWh []float64
		for _, s := range []sim.Scenario{sim.ScenarioNaive, sim.ScenarioConsistent, sim.ScenarioProteus} {
			wh := runs.Result(s).Meter.EnergyWh("cache")
			if wh >= static {
				t.Errorf("seed %d: %v cache energy %.2f Wh, want below Static's %.2f Wh", seed, s, wh, static)
			}
			dynamicWh = append(dynamicWh, wh)
		}
		migrated := runs.Result(sim.ScenarioProteus).Stats.MigratedOnDemand
		if migrated == 0 {
			t.Errorf("seed %d: Proteus migrated no keys", seed)
		}
		t.Logf("seed %d: worst p99.9 Proteus %v, Consistent %v, Naive %v; cache Wh Static %.2f, Naive/Consistent/Proteus %.2f; migrated %d",
			seed, proteus, consistent, naive, static, dynamicWh, migrated)
	}
}
