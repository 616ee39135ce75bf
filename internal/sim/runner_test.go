package sim

import (
	"testing"
	"time"

	"proteus/internal/database"
	"proteus/internal/testutil"
)

// testConfig builds a fast compressed-day configuration: 8 simulated
// minutes with 16 provisioning slots.
func testConfig(t testing.TB, scenario Scenario) Config {
	t.Helper()
	corpus := testutil.NewCorpus(t, 50000, 256)
	cfg := NewConfig(scenario, corpus, 8*time.Minute, 600)
	cfg.CachePagesPerServer = 4000
	cfg.SlotWidth = 30 * time.Second
	cfg.Warmup = 60 * time.Second
	cfg.TTL = 8 * time.Second
	cfg.BootDelay = 2 * time.Second
	cfg.LatencySlots = 96
	cfg.PowerEvery = 5 * time.Second
	return cfg
}

func runScenario(t testing.TB, scenario Scenario) *Result {
	t.Helper()
	res, err := Run(testConfig(t, scenario))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidation(t *testing.T) {
	t.Parallel()
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := testConfig(t, Scenario(99))
	if _, err := Run(cfg); err == nil {
		t.Error("unknown scenario accepted")
	}
	// NewConfig is the only source of defaults: a zeroed required field
	// is an error, never a second default.
	for name, zero := range map[string]func(*Config){
		"LatencySlots": func(c *Config) { c.LatencySlots = 0 },
		"DBShards":     func(c *Config) { c.DBShards = 0 },
		"DBLatency":    func(c *Config) { c.DBLatency = database.LatencyModel{} },
		"PowerEvery":   func(c *Config) { c.PowerEvery = 0 },
	} {
		cfg := testConfig(t, ScenarioProteus)
		zero(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("zero %s accepted", name)
		}
	}
}

func TestStaticScenarioBasics(t *testing.T) {
	t.Parallel()
	res := runScenario(t, ScenarioStatic)
	if res.Stats.Requests == 0 {
		t.Fatal("no requests simulated")
	}
	if res.Stats.Transitions != 0 {
		t.Fatalf("static scenario had %d transitions", res.Stats.Transitions)
	}
	for s, n := range res.Plan {
		if n != res.Config.CacheServers {
			t.Fatalf("static plan slot %d = %d", s, n)
		}
	}
	if hr := res.Stats.HitRatio(); hr < 0.6 {
		t.Fatalf("static hit ratio %.3f too low; cache model broken", hr)
	}
}

func TestDynamicPlanVaries(t *testing.T) {
	t.Parallel()
	res := runScenario(t, ScenarioProteus)
	min, max := res.Plan[0], res.Plan[0]
	for _, n := range res.Plan {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if min == max {
		t.Fatalf("dynamic plan is flat at %d", min)
	}
	if res.Stats.Transitions == 0 {
		t.Fatal("no transitions despite plan changes")
	}
}

func TestProteusMigratesOnDemand(t *testing.T) {
	t.Parallel()
	res := runScenario(t, ScenarioProteus)
	if res.Stats.MigratedOnDemand == 0 {
		t.Fatal("no on-demand migrations during transitions")
	}
	// Digest false positives must be rare relative to migrations.
	if res.Stats.DigestFalsePos > res.Stats.MigratedOnDemand/5+10 {
		t.Fatalf("digest false positives %d vs migrations %d",
			res.Stats.DigestFalsePos, res.Stats.MigratedOnDemand)
	}
}

// The paper's headline (Fig. 9): Naive transitions produce delay spikes
// that Proteus eliminates. Compare worst-slot p99.9 across scenarios
// under the identical plan and workload.
func TestProteusEliminatesDelaySpike(t *testing.T) {
	t.Parallel()
	worst := func(res *Result) time.Duration {
		var w time.Duration
		for _, q := range res.Latency.Quantiles(0.999) {
			if q > w {
				w = q
			}
		}
		return w
	}
	static := worst(runScenario(t, ScenarioStatic))
	naive := worst(runScenario(t, ScenarioNaive))
	proteus := worst(runScenario(t, ScenarioProteus))

	if naive < 2*static {
		t.Errorf("naive worst p99.9 %v not spiking vs static %v", naive, static)
	}
	if proteus > naive/2 {
		t.Errorf("proteus worst p99.9 %v should be far below naive %v", proteus, naive)
	}
}

// Dynamic provisioning must save energy versus Static (Fig. 11), and
// Proteus must save about as much as Naive (it keeps servers on only
// TTL longer).
func TestEnergySavings(t *testing.T) {
	t.Parallel()
	static := runScenario(t, ScenarioStatic)
	naive := runScenario(t, ScenarioNaive)
	proteus := runScenario(t, ScenarioProteus)

	staticCache := static.Meter.EnergyWh("cache")
	naiveCache := naive.Meter.EnergyWh("cache")
	proteusCache := proteus.Meter.EnergyWh("cache")

	if naiveCache >= staticCache || proteusCache >= staticCache {
		t.Fatalf("cache energy: static=%.1f naive=%.1f proteus=%.1f; no savings",
			staticCache, naiveCache, proteusCache)
	}
	saving := (staticCache - proteusCache) / staticCache
	if saving < 0.10 {
		t.Errorf("proteus cache-tier saving %.1f%%, want >= 10%%", saving*100)
	}
	// Proteus pays at most a small premium over naive for TTL-delayed
	// power-off.
	if proteusCache > naiveCache*1.15 {
		t.Errorf("proteus cache energy %.1f more than 15%% above naive %.1f",
			proteusCache, naiveCache)
	}
	// Whole-cluster saving is smaller but present.
	if proteus.Meter.TotalEnergyWh() >= static.Meter.TotalEnergyWh() {
		t.Error("no whole-cluster saving")
	}
}

// Load balance (Fig. 5): Proteus and Naive stay balanced across slots;
// Consistent (random virtual nodes) balances worse.
func TestLoadBalanceAcrossSlots(t *testing.T) {
	t.Parallel()
	worstRatio := func(res *Result) float64 {
		worst := 1.0
		for s := 1; s < res.Load.Slots(); s++ { // skip slot 0 (warmup edge)
			active := res.Plan[s]
			if res.Load.SlotTotal(s) < 200 {
				continue
			}
			if r := res.Load.MinMaxRatio(s, active); r < worst {
				worst = r
			}
		}
		return worst
	}
	proteus := worstRatio(runScenario(t, ScenarioProteus))
	consistent := worstRatio(runScenario(t, ScenarioConsistent))
	if proteus < 0.5 {
		t.Errorf("proteus worst slot ratio %.3f; load not balanced", proteus)
	}
	if consistent >= proteus {
		t.Errorf("consistent (%.3f) should balance worse than proteus (%.3f)", consistent, proteus)
	}
}

func TestResultSeriesShapes(t *testing.T) {
	t.Parallel()
	res := runScenario(t, ScenarioProteus)
	if res.Latency.Slots() != 96 {
		t.Fatalf("latency slots = %d", res.Latency.Slots())
	}
	if res.Load.Slots() != len(res.Plan) {
		t.Fatalf("load slots %d != plan %d", res.Load.Slots(), len(res.Plan))
	}
	if res.Meter.Samples() == 0 {
		t.Fatal("no power samples")
	}
	if got := len(res.Requests.Counts()); got != 24 {
		t.Fatalf("request counter windows = %d, want 24", got)
	}
	// Request totals must reflect the diurnal curve: peak window >
	// valley window.
	counts := res.Requests.Counts()
	if counts[12] <= counts[0] {
		t.Fatalf("no diurnal shape in request counts: %v", counts)
	}
}

func TestDeterministicRuns(t *testing.T) {
	t.Parallel()
	a, b := runTwice(t, func() Config { return testConfig(t, ScenarioProteus) })
	if a.Stats != b.Stats {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

func BenchmarkSimProteusCompressedDay(b *testing.B) {
	cfg := testConfig(b, ScenarioProteus)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
