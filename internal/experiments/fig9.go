package experiments

import (
	"fmt"
	"strings"
	"time"

	"proteus/internal/sim"
)

// ScenarioRuns is the shared output of the response-time experiment:
// one simulation per Table II scenario under the identical plan and
// workload, reused by Fig. 9 (latency), Fig. 10 (power) and Fig. 11
// (energy).
type ScenarioRuns struct {
	Scale   Scale
	Results []*sim.Result // in Scenarios() order
}

// RunScenarios executes all four scenarios, side by side (sim.RunAll).
func RunScenarios(scale Scale) (*ScenarioRuns, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	corpus, err := scale.Corpus()
	if err != nil {
		return nil, err
	}
	var cfgs []sim.Config
	for _, scenario := range sim.Scenarios() {
		cfgs = append(cfgs, scale.config(scenario, corpus))
	}
	results, err := sim.RunAll(cfgs...)
	if err != nil {
		return nil, fmt.Errorf("experiments: scenario runs: %w", err)
	}
	return &ScenarioRuns{Scale: scale, Results: results}, nil
}

// Result returns the run for a scenario.
func (r *ScenarioRuns) Result(s sim.Scenario) *sim.Result {
	for _, res := range r.Results {
		if res.Scenario == s {
			return res
		}
	}
	return nil
}

// Fig9Result is the paper's Fig. 9: the 99.9th-percentile response time
// per time slot for each scenario. The paper plots 480 slots on a log
// axis; the reproduction target is the spike structure — a large spike
// for Naive at every provisioning change, a visible one for Consistent,
// and none for Proteus, which matches Static.
type Fig9Result struct {
	Runs *ScenarioRuns
}

// Fig9 derives the latency series from the shared runs.
func Fig9(runs *ScenarioRuns) *Fig9Result { return &Fig9Result{Runs: runs} }

// WorstP999 returns a scenario's worst slot 99.9th percentile.
func (r *Fig9Result) WorstP999(s sim.Scenario) time.Duration {
	res := r.Runs.Result(s)
	var worst time.Duration
	for _, q := range res.Latency.Quantiles(0.999) {
		if q > worst {
			worst = q
		}
	}
	return worst
}

// SpikeFactor returns a scenario's worst slot p99.9 divided by
// Static's — the figure's headline comparison.
func (r *Fig9Result) SpikeFactor(s sim.Scenario) float64 {
	static := r.WorstP999(sim.ScenarioStatic)
	if static == 0 {
		return 0
	}
	return float64(r.WorstP999(s)) / float64(static)
}

// Render prints per-slot p99.9 for all four scenarios plus the spike
// summary.
func (r *Fig9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9 — 99.9th percentile response time per slot (%s scale)\n", r.Runs.Scale.Name)
	series := make(map[sim.Scenario][]time.Duration, 4)
	for _, s := range sim.Scenarios() {
		series[s] = r.Runs.Result(s).Latency.Quantiles(0.999)
	}
	fmt.Fprintf(&b, "%-6s", "slot")
	for _, s := range sim.Scenarios() {
		fmt.Fprintf(&b, " %-14s", s)
	}
	b.WriteByte('\n')
	n := len(series[sim.ScenarioStatic])
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%-6d", i)
		for _, s := range sim.Scenarios() {
			fmt.Fprintf(&b, " %-14s", fmtMS(series[s][i]))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\n%-12s %-14s %-10s\n", "scenario", "worst p99.9", "vs static")
	for _, s := range sim.Scenarios() {
		fmt.Fprintf(&b, "%-12v %-14s %-10.2f\n", s, fmtMS(r.WorstP999(s)), r.SpikeFactor(s))
	}
	b.WriteString("\nresponse composition (count / mean by source):\n")
	fmt.Fprintf(&b, "%-12s %-24s %-24s %-24s\n", "scenario", "cache-hit", "migrated", "database")
	for _, s := range sim.Scenarios() {
		res := r.Runs.Result(s)
		fmt.Fprintf(&b, "%-12v", s)
		for src := sim.SourceHit; src <= sim.SourceDB; src++ {
			h := res.SourceLatency(src)
			fmt.Fprintf(&b, " %-8d %-14s", h.Count(), fmtMS(h.Mean()))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}
