// Command proteus-policy plays every provisioning policy over the same
// seeded traces in the discrete-event simulator and emits an
// energy-vs-SLO-violation Pareto table: the data behind the question
// "which policy buys how much energy for how many violated slots?".
//
// Usage:
//
//	proteus-policy [-seed 1] [-duration 8m] [-mean-rps 600]
//	               [-policies static,rate-plan,delay-feedback,oracle]
//	               [-traces diurnal,flash] [-format table|csv|both]
//	               [-check]
//
// Output is byte-identical for one seed and option set. -check exits
// non-zero unless no run issued a scale-down mid-drain and
// delay-feedback matched static's SLO at lower energy.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"proteus/internal/provision"
	"proteus/internal/sim"
	"proteus/internal/wiki"
	"proteus/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "proteus-policy:", err)
		os.Exit(1)
	}
}

// row is one (trace, policy) sweep result.
type row struct {
	trace, policy string
	energyWh      float64
	violations    int
	worstP999     time.Duration
	meanFleet     float64
	flips         int
	deferred      uint64
	midDrain      uint64
	pareto        bool
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("proteus-policy", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		seed        = fs.Int64("seed", 1, "determinism seed")
		duration    = fs.Duration("duration", 8*time.Minute, "compressed-day length")
		meanRPS     = fs.Float64("mean-rps", 600, "mean offered load")
		corpusPages = fs.Int("corpus-pages", 50000, "page population")
		servers     = fs.Int("servers", 10, "cache servers")
		slot        = fs.Duration("slot", 30*time.Second, "provisioning slot width")
		ttl         = fs.Duration("ttl", 45*time.Second, "hot-data window (paper: 45 s)")
		reference   = fs.Duration("reference", 200*time.Millisecond, "delay-feedback reference (p99.9 target)")
		bound       = fs.Duration("bound", 300*time.Millisecond, "delay SLO; a slot whose p99.9 exceeds it is a violation")
		policyList  = fs.String("policies", "static,rate-plan,delay-feedback,oracle", "comma-separated policies (also: legacy-feedback)")
		traceList   = fs.String("traces", "diurnal,flash", "comma-separated traces")
		format      = fs.String("format", "both", "output format: table, csv or both")
		check       = fs.Bool("check", false, "assert the sweep's invariants and exit non-zero on failure")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	switch *format {
	case "table", "csv", "both":
	default:
		return fmt.Errorf("unknown format %q", *format)
	}

	corpus, err := wiki.New(*corpusPages, wiki.DefaultPageSize)
	if err != nil {
		return err
	}

	// Every (trace, policy) run is independent: build them all, then run
	// them side by side. Each run gets its own policy instance.
	type label struct{ trace, policy string }
	var labels []label
	var cfgs []sim.Config
	for _, traceName := range splitList(*traceList) {
		curve, err := traceCurve(traceName, *meanRPS, *duration)
		if err != nil {
			return err
		}
		for _, policyName := range splitList(*policyList) {
			cfg := sim.NewConfig(sim.ScenarioProteus, corpus, *duration, *meanRPS)
			cfg.CachePagesPerServer = corpus.Pages() / 12
			cfg.CacheServers = *servers
			cfg.SlotWidth = *slot
			cfg.TTL = *ttl
			cfg.BootDelay = *slot / 16
			cfg.Warmup = *duration / 8
			cfg.LatencySlots = 96
			cfg.PowerEvery = 5 * time.Second
			cfg.Seed = *seed
			cfg.Rate = curve
			// The open-loop plan (initial fleet, and the rate-plan
			// policy itself) is derived from the surge-free base curve:
			// a forecaster extrapolating the diurnal pattern does not
			// see the flash crowd coming. Static keeps the whole fleet
			// from the start — its plan, not the rate plan, sets slot 0.
			if policyName == "static" {
				slots := int((*duration + *slot - 1) / *slot)
				cfg.Plan = make([]int, slots)
				for i := range cfg.Plan {
					cfg.Plan[i] = *servers
				}
			} else {
				cfg.Plan = sim.PlanProvisioning(curve.Base(), *duration, *slot, cfg.PerServerCapacity, 1, *servers)
			}
			policy, err := buildPolicy(policyName, cfg, curve, *reference, *bound)
			if err != nil {
				return err
			}
			cfg.Policy = policy
			labels = append(labels, label{traceName, policyName})
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := sim.RunAll(cfgs...)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	rows := make([]row, len(results))
	for i, res := range results {
		rows[i] = summarize(labels[i].trace, labels[i].policy, res, *bound)
	}
	markPareto(rows)

	if *format == "table" || *format == "both" {
		writeTable(stdout, rows)
	}
	if *format == "csv" || *format == "both" {
		if *format == "both" {
			fmt.Fprintln(stdout)
		}
		if err := writeCSV(stdout, rows); err != nil {
			return err
		}
	}
	if *check {
		return checkRows(rows)
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// traceCurve builds the offered-load curve for a named trace. The flash
// trace superimposes a one-off surge on the descending flank of the
// diurnal curve, sized to press against the full fleet's capacity.
func traceCurve(name string, mean float64, duration time.Duration) (workload.Diurnal, error) {
	curve := workload.DefaultDiurnal(mean, duration)
	switch name {
	case "diurnal":
		return curve, nil
	case "flash":
		// A surge on the descending flank, where the open-loop plan has
		// already shed: wide enough to span several provisioning slots
		// (the closed-loop population retargets once per slot), peaking
		// near the full fleet's capacity so only under-provisioned
		// fleets saturate.
		curve.SurgeAt = 17 * duration / 24
		curve.SurgeDuration = duration / 4
		curve.SurgeFactor = 1.5
		return curve, nil
	default:
		return curve, fmt.Errorf("unknown trace %q", name)
	}
}

// buildPolicy constructs a fresh policy per run (DelayFeedback carries
// loop state across slots, so instances must not be shared).
func buildPolicy(name string, cfg sim.Config, curve workload.Diurnal, reference, bound time.Duration) (provision.Policy, error) {
	switch name {
	case "static":
		return provision.Static{N: cfg.CacheServers}, nil
	case "rate-plan":
		return provision.Planned{Plan: cfg.Plan, PolicyName: "rate-plan"}, nil
	case "delay-feedback":
		return provision.NewDelayFeedback(provision.FeedbackConfig{
			Reference:         reference,
			Bound:             bound,
			PerServerCapacity: cfg.PerServerCapacity,
			Min:               1,
			Max:               cfg.CacheServers,
			SlotWidth:         cfg.SlotWidth,
		}), nil
	case "oracle":
		// The oracle alone sees the true curve, surge included.
		return provision.Oracle{
			Rate:              curve.Rate,
			SlotWidth:         cfg.SlotWidth,
			PerServerCapacity: cfg.PerServerCapacity,
			Min:               1,
			Max:               cfg.CacheServers,
		}, nil
	case "legacy-feedback":
		return provision.LegacyController{
			Reference:         reference,
			Bound:             bound,
			PerServerCapacity: cfg.PerServerCapacity,
			Min:               1,
			Max:               cfg.CacheServers,
		}, nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

func summarize(trace, policy string, res *sim.Result, bound time.Duration) row {
	r := row{
		trace:    trace,
		policy:   policy,
		energyWh: res.Meter.EnergyWh("cache"),
		deferred: res.Stats.ScaleDownsDeferred,
		midDrain: res.Stats.MidDrainScaleDowns,
	}
	for _, q := range res.Latency.Quantiles(0.999) {
		if q > bound {
			r.violations++
		}
		if q > r.worstP999 {
			r.worstP999 = q
		}
	}
	total := 0
	prev := res.Plan[0]
	for _, n := range res.Plan {
		total += n
		if n != prev {
			r.flips++
			prev = n
		}
	}
	r.meanFleet = float64(total) / float64(len(res.Plan))
	return r
}

// markPareto flags, per trace, the rows on the energy/violations Pareto
// frontier: no other row has both no-worse energy and no-worse
// violations with at least one strictly better.
func markPareto(rows []row) {
	for i := range rows {
		dominated := false
		for j := range rows {
			if i == j || rows[j].trace != rows[i].trace {
				continue
			}
			betterOrEqual := rows[j].energyWh <= rows[i].energyWh && rows[j].violations <= rows[i].violations
			strictlyBetter := rows[j].energyWh < rows[i].energyWh || rows[j].violations < rows[i].violations
			if betterOrEqual && strictlyBetter {
				dominated = true
				break
			}
		}
		rows[i].pareto = !dominated
	}
}

func writeTable(w io.Writer, rows []row) {
	fmt.Fprintln(w, "| trace | policy | energy (Wh) | SLO-violation slots | worst p99.9 (ms) | mean fleet | flips | deferred | mid-drain | pareto |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|---:|---:|---:|---:|:---:|")
	for _, r := range rows {
		mark := ""
		if r.pareto {
			mark = "*"
		}
		fmt.Fprintf(w, "| %s | %s | %.1f | %d | %.1f | %.2f | %d | %d | %d | %s |\n",
			r.trace, r.policy, r.energyWh, r.violations, ms(r.worstP999), r.meanFleet,
			r.flips, r.deferred, r.midDrain, mark)
	}
}

func writeCSV(w io.Writer, rows []row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"trace", "policy", "energy_wh", "slo_violation_slots",
		"worst_p999_ms", "mean_fleet", "flips", "deferred", "mid_drain", "pareto"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.trace, r.policy,
			strconv.FormatFloat(round1(r.energyWh), 'f', 1, 64),
			strconv.Itoa(r.violations),
			strconv.FormatFloat(round1(ms(r.worstP999)), 'f', 1, 64),
			strconv.FormatFloat(r.meanFleet, 'f', 2, 64),
			strconv.Itoa(r.flips),
			strconv.FormatUint(r.deferred, 10),
			strconv.FormatUint(r.midDrain, 10),
			strconv.FormatBool(r.pareto),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// checkRows asserts the sweep's invariants: no run ever issued a
// scale-down mid-drain, and delay-feedback matched (or beat) static's
// SLO-violation count at strictly lower energy on every trace that ran
// both.
func checkRows(rows []row) error {
	byTrace := map[string]map[string]row{}
	for _, r := range rows {
		if r.midDrain != 0 {
			return fmt.Errorf("check: %s/%s issued %d scale-downs mid-drain, want 0", r.trace, r.policy, r.midDrain)
		}
		if byTrace[r.trace] == nil {
			byTrace[r.trace] = map[string]row{}
		}
		byTrace[r.trace][r.policy] = r
	}
	for trace, policies := range byTrace {
		df, okDF := policies["delay-feedback"]
		st, okST := policies["static"]
		if !okDF || !okST {
			continue
		}
		if df.violations > st.violations {
			return fmt.Errorf("check: %s: delay-feedback has %d violation slots vs static's %d", trace, df.violations, st.violations)
		}
		if df.energyWh >= st.energyWh {
			return fmt.Errorf("check: %s: delay-feedback energy %.1f Wh not below static's %.1f Wh", trace, df.energyWh, st.energyWh)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func round1(v float64) float64 { return math.Round(v*10) / 10 }
