package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"proteus/internal/experiments"
	"proteus/internal/sim"
	"proteus/internal/wiki"
)

// scenarioConfig is the configuration experiments.RunScenarios gives one
// Table II scenario at a scale. RunScenarios runs the four as one call;
// the benchmark runs them one at a time so that each has its own wall
// time, and checkConfigs holds this copy to the original.
func scenarioConfig(scale experiments.Scale, scenario sim.Scenario, corpus *wiki.Corpus) sim.Config {
	cfg := sim.NewConfig(scenario, corpus, scale.Duration, scale.MeanRPS)
	cfg.SlotWidth = scale.SlotWidth
	cfg.CachePagesPerServer = scale.CachePagesPerServer
	cfg.Seed = scale.Seed
	cfg.Warmup = scale.Duration / 8
	cfg.TTL = 2 * scale.SlotWidth
	cfg.BootDelay = scale.SlotWidth / 16
	cfg.LatencySlots = 96
	cfg.PowerEvery = scale.Duration / 96
	return cfg
}

// runScenarioSet runs the four scenarios once and returns them in the form the
// experiments package analyses, with each scenario's wall time.
func runScenarioSet(scale experiments.Scale, corpus *wiki.Corpus) (*experiments.ScenarioRuns, []time.Duration, error) {
	runs := &experiments.ScenarioRuns{Scale: scale}
	var walls []time.Duration
	for _, scenario := range sim.Scenarios() {
		t := time.Now()
		res, err := sim.Run(scenarioConfig(scale, scenario, corpus))
		if err != nil {
			return nil, nil, fmt.Errorf("scenario %v: %w", scenario, err)
		}
		walls = append(walls, time.Since(t))
		runs.Results = append(runs.Results, res)
	}
	return runs, walls, nil
}

// checkConfigs runs the tiny scale both ways and reports whether every
// scenario's counters and cache energy agree exactly. The simulator is
// deterministic, so any difference means scenarioConfig has drifted from
// experiments.RunScenarios.
func checkConfigs(seed int64) (bool, error) {
	scale := experiments.Tiny()
	scale.Seed = seed
	want, err := experiments.RunScenarios(scale)
	if err != nil {
		return false, err
	}
	corpus, err := scale.Corpus()
	if err != nil {
		return false, err
	}
	got, _, err := runScenarioSet(scale, corpus)
	if err != nil {
		return false, err
	}
	for i, w := range want.Results {
		g := got.Results[i]
		if g.Stats != w.Stats || g.Meter.EnergyWh("cache") != w.Meter.EnergyWh("cache") {
			return false, nil
		}
	}
	return true, nil
}

// simDay is the sim_day workload: the four scenarios over one simulated
// day, repeated until the measuring time is used up (at least once).
type simDay struct {
	scale  experiments.Scale
	corpus *wiki.Corpus
}

func setupSimDay(scale experiments.Scale, seed int64, checks *checkList) (*simDay, error) {
	scale.Seed = seed
	same, err := checkConfigs(seed)
	if err != nil {
		return nil, err
	}
	checks.add("scenario configs match experiments.RunScenarios at tiny scale", same, "")
	corpus, err := scale.Corpus()
	if err != nil {
		return nil, err
	}
	return &simDay{scale: scale, corpus: corpus}, nil
}

type simResult struct {
	runs       *experiments.ScenarioRuns // the last set
	walls      [][]time.Duration         // per set, per scenario
	requests   uint64                    // simulated, all sets
	wall       time.Duration
	allocBytes uint64
	mallocs    uint64
}

func (s *simDay) run(dur time.Duration) (*simResult, error) {
	res := &simResult{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for len(res.walls) == 0 || time.Since(start) < dur {
		runs, walls, err := runScenarioSet(s.scale, s.corpus)
		if err != nil {
			return nil, err
		}
		res.runs = runs
		res.walls = append(res.walls, walls)
		for _, r := range runs.Results {
			res.requests += r.Stats.Requests
		}
	}
	res.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.mallocs = m1.Mallocs - m0.Mallocs
	return res, nil
}

// check applies the paper's Section VI claims as output checks.
func (r *simResult) check(checks *checkList) {
	proteus := r.runs.Result(sim.ScenarioProteus)
	naive := r.runs.Result(sim.ScenarioNaive)
	checks.add("Proteus never shrinks mid-drain", proteus.Stats.MidDrainScaleDowns == 0,
		fmt.Sprintf("%d", proteus.Stats.MidDrainScaleDowns))
	pp, np := proteus.Latency.Total().Quantile(0.999), naive.Latency.Total().Quantile(0.999)
	checks.add("Proteus p99.9 response time is at most Naive's", pp <= np, fmt.Sprintf("%v vs %v", pp, np))
	energy := experiments.Fig11(r.runs)
	pe, se := energy.CacheEnergyWh(sim.ScenarioProteus), energy.CacheEnergyWh(sim.ScenarioStatic)
	checks.add("Proteus cache energy is below Static's", pe < se, fmt.Sprintf("%.1f vs %.1f Wh", pe, se))
}

// servedShare is the Proteus scenario's share of requests kept off the
// database: new-owner hits plus on-demand migrations.
func (r *simResult) servedShare() float64 {
	st := r.runs.Result(sim.ScenarioProteus).Stats
	return float64(st.CacheHits+st.MigratedOnDemand) / float64(st.Requests)
}

// scenarioWalls flattens the per-scenario wall times of all sets,
// sorted: the latency samples of sim_day.
func (r *simResult) scenarioWalls() []int64 {
	var out []int64
	for _, set := range r.walls {
		for _, w := range set {
			out = append(out, int64(w))
		}
	}
	slices.Sort(out)
	return out
}

// layerMetrics fills the sim and power rows of the per-layer table.
func (r *simResult) layerMetrics(m *metricSet) {
	names := map[sim.Scenario]string{
		sim.ScenarioStatic:     "sim.req_per_s.static",
		sim.ScenarioNaive:      "sim.req_per_s.naive",
		sim.ScenarioConsistent: "sim.req_per_s.consistent",
		sim.ScenarioProteus:    "sim.req_per_s.proteus",
	}
	for i, res := range r.runs.Results {
		var rates []float64
		for _, set := range r.walls {
			rates = append(rates, float64(res.Stats.Requests)/set[i].Seconds())
		}
		m.setN(names[res.Scenario], median(rates), len(rates))
	}
	m.set("sim.allocs_per_req", float64(r.mallocs)/float64(r.requests))
	proteus := r.runs.Result(sim.ScenarioProteus)
	naive := r.runs.Result(sim.ScenarioNaive)
	m.set("sim.transitions", float64(proteus.Stats.Transitions))
	m.set("sim.proteus_hit_ratio", proteus.Stats.HitRatio())
	m.set("sim.proteus_migrated", float64(proteus.Stats.MigratedOnDemand))
	m.set("sim.proteus_db_queries", float64(proteus.Stats.DBQueries))
	m.set("sim.naive_db_queries", float64(naive.Stats.DBQueries))
	m.set("sim.proteus_p999_ms", msOf(int64(proteus.Latency.Total().Quantile(0.999))))
	m.set("sim.naive_p999_ms", msOf(int64(naive.Latency.Total().Quantile(0.999))))
	energy := experiments.Fig11(r.runs)
	m.set("power.proteus_energy_wh", energy.CacheEnergyWh(sim.ScenarioProteus))
	m.set("power.static_energy_wh", energy.CacheEnergyWh(sim.ScenarioStatic))
}
