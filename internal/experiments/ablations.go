package experiments

import (
	"fmt"
	"strings"
	"time"

	"proteus/internal/provision"
	"proteus/internal/sim"
)

// This file contains the ablation studies DESIGN.md calls out: they are
// not figures from the paper but isolate the contribution of each
// design choice the paper combines.

// DigestAblationResult decomposes Proteus's spike elimination into its
// two mechanisms: the deterministic placement (which shrinks the
// re-mapped key volume to the minimum) and the digest-driven on-demand
// migration (which keeps even those keys away from the database).
type DigestAblationResult struct {
	Scale Scale
	// Rows: Naive, Proteus without digest, full Proteus, Static.
	Names      []string
	WorstP999  []time.Duration
	DBQueries  []uint64
	Migrations []uint64
}

// AblationDigest runs the decomposition.
func AblationDigest(scale Scale) (*DigestAblationResult, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	corpus, err := scale.Corpus()
	if err != nil {
		return nil, err
	}
	cases := []struct {
		name     string
		scenario sim.Scenario
		noDigest bool
	}{
		{"Naive", sim.ScenarioNaive, false},
		{"Proteus-no-digest", sim.ScenarioProteus, true},
		{"Proteus", sim.ScenarioProteus, false},
		{"Static", sim.ScenarioStatic, false},
	}
	var cfgs []sim.Config
	for _, c := range cases {
		cfg := scale.config(c.scenario, corpus)
		cfg.DisableDigest = c.noDigest
		cfgs = append(cfgs, cfg)
	}
	results, err := sim.RunAll(cfgs...)
	if err != nil {
		return nil, fmt.Errorf("experiments: digest ablation: %w", err)
	}
	out := &DigestAblationResult{Scale: scale}
	for i, res := range results {
		out.Names = append(out.Names, cases[i].name)
		out.WorstP999 = append(out.WorstP999, worstQuantile(res, 0.999))
		out.DBQueries = append(out.DBQueries, res.Stats.DBQueries)
		out.Migrations = append(out.Migrations, res.Stats.MigratedOnDemand)
	}
	return out, nil
}

func worstQuantile(res *sim.Result, q float64) time.Duration {
	var worst time.Duration
	for _, v := range res.Latency.Quantiles(q) {
		if v > worst {
			worst = v
		}
	}
	return worst
}

// Render prints the decomposition table.
func (r *DigestAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — placement vs digest contribution (%s scale)\n", r.Scale.Name)
	fmt.Fprintf(&b, "%-20s %-14s %-10s %-10s\n", "variant", "worst p99.9", "db gets", "migrations")
	for i, name := range r.Names {
		fmt.Fprintf(&b, "%-20s %-14s %-10d %-10d\n",
			name, fmtMS(r.WorstP999[i]), r.DBQueries[i], r.Migrations[i])
	}
	b.WriteString("(placement alone shrinks the remap storm to the minimum; the digest\n" +
		" removes the rest — both are needed for the Static-level tail)\n")
	return b.String()
}

// TTLAblationResult sweeps the hot-data window: too short loses hot
// items before their first post-transition touch (tail latency), too
// long delays power-off (energy premium).
type TTLAblationResult struct {
	Scale     Scale
	TTLs      []time.Duration
	WorstP999 []time.Duration
	CacheWh   []float64
}

// AblationTTL runs the sweep on the Proteus scenario.
func AblationTTL(scale Scale) (*TTLAblationResult, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	corpus, err := scale.Corpus()
	if err != nil {
		return nil, err
	}
	out := &TTLAblationResult{Scale: scale}
	var cfgs []sim.Config
	for _, frac := range []int{16, 8, 4, 2, 1} {
		cfg := scale.config(sim.ScenarioProteus, corpus)
		cfg.TTL = scale.SlotWidth * 2 / time.Duration(frac)
		out.TTLs = append(out.TTLs, cfg.TTL)
		cfgs = append(cfgs, cfg)
	}
	results, err := sim.RunAll(cfgs...)
	if err != nil {
		return nil, fmt.Errorf("experiments: TTL ablation: %w", err)
	}
	for _, res := range results {
		out.WorstP999 = append(out.WorstP999, worstQuantile(res, 0.999))
		out.CacheWh = append(out.CacheWh, res.Meter.EnergyWh("cache"))
	}
	return out, nil
}

// Render prints the sweep.
func (r *TTLAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — TTL window sweep, Proteus (%s scale)\n", r.Scale.Name)
	fmt.Fprintf(&b, "%-12s %-14s %-12s\n", "TTL", "worst p99.9", "cache Wh")
	for i := range r.TTLs {
		fmt.Fprintf(&b, "%-12s %-14s %-12.1f\n",
			r.TTLs[i].Truncate(time.Millisecond), fmtMS(r.WorstP999[i]), r.CacheWh[i])
	}
	b.WriteString("(short TTL loses hot items before their first touch -> tail grows;\n" +
		" long TTL keeps dying servers on longer -> energy premium)\n")
	return b.String()
}

// ControllerAblationResult compares the static rate-derived plan with
// the paper-style closed-loop delay-feedback controller.
type ControllerAblationResult struct {
	Scale Scale
	// Per variant: plan range, worst tail, cache energy.
	Names     []string
	PlanMin   []int
	PlanMax   []int
	WorstP999 []time.Duration
	CacheWh   []float64
}

// AblationController runs the comparison on the Proteus scenario.
func AblationController(scale Scale) (*ControllerAblationResult, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	corpus, err := scale.Corpus()
	if err != nil {
		return nil, err
	}

	out := &ControllerAblationResult{Scale: scale}
	record := func(name string, res *sim.Result) {
		min, max := res.Plan[0], res.Plan[0]
		for _, n := range res.Plan {
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		out.Names = append(out.Names, name)
		out.PlanMin = append(out.PlanMin, min)
		out.PlanMax = append(out.PlanMax, max)
		out.WorstP999 = append(out.WorstP999, worstQuantile(res, 0.999))
		out.CacheWh = append(out.CacheWh, res.Meter.EnergyWh("cache"))
	}

	// The controller's bound comes from the rate-plan run, so the two
	// runs are sequential.
	planRes, err := sim.Run(scale.config(sim.ScenarioProteus, corpus))
	if err != nil {
		return nil, err
	}
	record("rate-plan", planRes)

	ctrlCfg := scale.config(sim.ScenarioProteus, corpus)
	// Scale the paper's 0.4s/0.5s targets to the compressed substrate:
	// use the rate-plan run's overall tail as the bound.
	total := planRes.Latency.Total()
	bound := total.Quantile(0.999)
	ctrlCfg.Policy = provision.LegacyController{
		Reference:         bound * 4 / 5,
		Bound:             bound,
		PerServerCapacity: ctrlCfg.PerServerCapacity,
		Min:               1,
		Max:               ctrlCfg.CacheServers,
	}
	ctrlRes, err := sim.Run(ctrlCfg)
	if err != nil {
		return nil, err
	}
	record("delay-feedback", ctrlRes)
	return out, nil
}

// Render prints the comparison.
func (r *ControllerAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — provisioning policy, Proteus (%s scale)\n", r.Scale.Name)
	fmt.Fprintf(&b, "%-16s %-12s %-14s %-12s\n", "policy", "plan range", "worst p99.9", "cache Wh")
	for i, name := range r.Names {
		fmt.Fprintf(&b, "%-16s %d..%-9d %-14s %-12.1f\n",
			name, r.PlanMin[i], r.PlanMax[i], fmtMS(r.WorstP999[i]), r.CacheWh[i])
	}
	b.WriteString("(the actuator is policy-agnostic: both policies ride the curve;\n" +
		" the feedback loop needs no capacity model but reacts a slot late)\n")
	return b.String()
}
