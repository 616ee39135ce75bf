package sim

import (
	"testing"
	"time"

	"proteus/internal/workload"
)

// buildTrace synthesises a time-ordered event stream covering
// warmup+duration for the test config.
func buildTrace(t testing.TB, cfg Config) []workload.Event {
	t.Helper()
	var events []workload.Event
	err := workload.Generate(workload.GenConfig{
		Duration: cfg.Warmup + cfg.Duration,
		Rate:     cfg.Rate,
		Corpus:   cfg.Corpus,
		Seed:     7,
	}, func(e workload.Event) bool {
		events = append(events, e)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestOpenLoopTraceReplay(t *testing.T) {
	t.Parallel()
	cfg := testConfig(t, ScenarioProteus)
	trace := buildTrace(t, cfg)
	cfg.Trace = trace
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every trace event becomes exactly one request.
	if res.Stats.Requests != uint64(len(trace)) {
		t.Fatalf("requests = %d, trace has %d events", res.Stats.Requests, len(trace))
	}
	// Latency is recorded for the measured window only.
	measured := 0
	for _, e := range trace {
		if e.At >= cfg.Warmup {
			measured++
		}
	}
	if got := res.Latency.Total().Count(); got != uint64(measured) {
		t.Fatalf("measured latencies = %d, want %d", got, measured)
	}
	if res.Stats.HitRatio() < 0.6 {
		t.Fatalf("open-loop hit ratio %.3f too low", res.Stats.HitRatio())
	}
	if res.Stats.Transitions == 0 {
		t.Fatal("no transitions during open-loop replay")
	}
}

func TestOpenLoopDeterministic(t *testing.T) {
	t.Parallel()
	cfg := testConfig(t, ScenarioNaive)
	cfg.Trace = buildTrace(t, cfg)
	a, b := runTwice(t, func() Config { return cfg })
	if a.Stats != b.Stats {
		t.Fatalf("open-loop runs differ:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

// Open loop has no backpressure: under a Naive transition storm the
// same arrival rate keeps hammering the saturated database, so the
// worst slot tail must exceed the closed-loop run's.
func TestOpenLoopSpikesHarder(t *testing.T) {
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
	closedRes, err := Run(testConfig(t, ScenarioNaive))
	if err != nil {
		t.Fatal(err)
	}
	openCfg := testConfig(t, ScenarioNaive)
	openCfg.Trace = buildTrace(t, openCfg)
	openRes, err := Run(openCfg)
	if err != nil {
		t.Fatal(err)
	}
	if worst(openRes) <= worst(closedRes) {
		t.Fatalf("open-loop worst %v not above closed-loop %v",
			worst(openRes), worst(closedRes))
	}
}

// Controller mode composes with open-loop replay: the realized plan
// still tracks the trace's load.
func TestOpenLoopWithController(t *testing.T) {
	t.Parallel()
	cfg := testConfig(t, ScenarioProteus)
	cfg.Trace = buildTrace(t, cfg)
	cfg.Policy = legacyControllerForTest(cfg)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	min, max := res.Plan[0], res.Plan[0]
	for _, n := range res.Plan {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max == min {
		t.Fatalf("controller flat under open-loop replay: %v", res.Plan)
	}
}
