package sim

import (
	"testing"
	"time"
)

// TestDiagnosticsPrint surfaces per-scenario numbers for calibration;
// run with -v to inspect.
func TestDiagnosticsPrint(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("diagnostics only")
	}
	var cfgs []Config
	for _, sc := range Scenarios() {
		cfgs = append(cfgs, testConfig(t, sc))
	}
	results, err := RunAll(cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		var worst time.Duration
		for _, q := range res.Latency.Quantiles(0.999) {
			if q > worst {
				worst = q
			}
		}
		total := res.Latency.Total()
		t.Logf("%-10s req=%-7d hit=%.3f worstP999=%-14v meanP999=%-14v dbQ=%-6d mig=%-5d fp=%-4d trans=%d cacheWh=%.1f totalWh=%.1f",
			res.Scenario, res.Stats.Requests, res.Stats.HitRatio(), worst,
			total.Quantile(0.999), res.Stats.DBQueries,
			res.Stats.MigratedOnDemand, res.Stats.DigestFalsePos, res.Stats.Transitions,
			res.Meter.EnergyWh("cache"), res.Meter.TotalEnergyWh())
	}
}
