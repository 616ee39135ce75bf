package sim

import (
	"bytes"
	"testing"

	"proteus/internal/telemetry"
)

// TestTelemetryDisabledByDefault: the DES plane pays nothing for
// telemetry unless the scenario asks for it.
func TestTelemetryDisabledByDefault(t *testing.T) {
	t.Parallel()
	res := runScenario(t, ScenarioProteus)
	if res.Tracer != nil || res.Events != nil {
		t.Fatal("telemetry populated without Config.Telemetry")
	}
}

// TestTelemetryEventAccounting cross-checks the structured transition
// events against the aggregate Stats the runner keeps independently:
// the per-transition migration counts must reproduce the Fig. 9-style
// amortized-migration accounting exactly.
func TestTelemetryEventAccounting(t *testing.T) {
	t.Parallel()
	cfg := testConfig(t, ScenarioProteus)
	cfg.Telemetry = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tracer == nil || res.Events == nil {
		t.Fatal("telemetry enabled but tracer/events missing from result")
	}
	ev := res.Events

	if got := ev.Count(telemetry.EventOwnershipFlip); got != uint64(res.Stats.Transitions) {
		t.Errorf("ownership_flip events = %d, Stats.Transitions = %d", got, res.Stats.Transitions)
	}
	if got := ev.Count(telemetry.EventTTLExpiry); got != uint64(res.Stats.Transitions) {
		t.Errorf("ttl_expiry events = %d, Stats.Transitions = %d", got, res.Stats.Transitions)
	}
	if got := ev.Count(telemetry.EventMigrationHit); got != res.Stats.MigratedOnDemand {
		t.Errorf("migration_hit events = %d, Stats.MigratedOnDemand = %d", got, res.Stats.MigratedOnDemand)
	}
	if got := ev.Count(telemetry.EventMigrationMiss); got != res.Stats.DigestFalsePos {
		t.Errorf("migration_miss events = %d, Stats.DigestFalsePos = %d", got, res.Stats.DigestFalsePos)
	}

	per := ev.MigrationsPerTransition()
	if len(per) != res.Stats.Transitions {
		t.Fatalf("MigrationsPerTransition has %d slots, want %d", len(per), res.Stats.Transitions)
	}
	var sum uint64
	for _, n := range per {
		sum += n
	}
	if sum != res.Stats.MigratedOnDemand {
		t.Errorf("sum(MigrationsPerTransition) = %d, Stats.MigratedOnDemand = %d", sum, res.Stats.MigratedOnDemand)
	}

	// Every server that ever ran must have powered on; every scale-down
	// victim must have powered off.
	if got := ev.Count(telemetry.EventPowerOn); got < uint64(cfg.CacheServers) {
		t.Errorf("power_on events = %d, want at least the initial fleet of %d", got, cfg.CacheServers)
	}
	if res.Stats.Transitions > 0 && ev.Count(telemetry.EventDigestBuild) == 0 {
		t.Error("transitions happened but no digest_build events")
	}
}

// TestTelemetryDeterministic: two runs with the same seed must produce
// byte-identical trace and event streams — the tracer and event log are
// inside the replay-critical boundary.
func TestTelemetryDeterministic(t *testing.T) {
	t.Parallel()
	a, b := runTwice(t, func() Config {
		cfg := testConfig(t, ScenarioProteus)
		cfg.Telemetry = true
		return cfg
	})
	streams := func(res *Result) (trace, events []byte) {
		var tb, eb bytes.Buffer
		if err := res.Tracer.WriteJSON(&tb); err != nil {
			t.Fatal(err)
		}
		if err := res.Events.WriteJSON(&eb); err != nil {
			t.Fatal(err)
		}
		return tb.Bytes(), eb.Bytes()
	}
	t1, e1 := streams(a)
	t2, e2 := streams(b)
	if !bytes.Equal(t1, t2) {
		t.Error("same-seed runs produced different trace streams")
	}
	if !bytes.Equal(e1, e2) {
		t.Error("same-seed runs produced different event streams")
	}
	if len(e1) == 0 {
		t.Fatal("empty event stream")
	}
}
