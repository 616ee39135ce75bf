package sim

import (
	"fmt"
	"testing"
	"time"

	"proteus/internal/core"
	"proteus/internal/telemetry"
	"proteus/internal/testutil"
)

// TestProteusOnlySettingsRejectedOnBaselines: replication, the digest
// ablation and the placement backend configure Proteus's machine; a
// baseline given one of them must fail loudly instead of running its
// Table II scheme unchanged.
func TestProteusOnlySettingsRejectedOnBaselines(t *testing.T) {
	t.Parallel()
	corpus := testutil.NewCorpus(t, 1000, 64)
	settings := []struct {
		name        string
		set         func(*Config)
		proteusOnly bool
	}{
		{"none", func(*Config) {}, false},
		{"replicas=1", func(c *Config) { c.Replicas = 1 }, false},
		{"replicas=2", func(c *Config) { c.Replicas = 2 }, true},
		{"no-digest", func(c *Config) { c.DisableDigest = true }, true},
		{"backend=pch", func(c *Config) { c.Backend = core.BackendPCH }, true},
		{"backend=proteus", func(c *Config) { c.Backend = core.BackendProteus }, true},
	}
	for _, scenario := range Scenarios() {
		for _, s := range settings {
			t.Run(fmt.Sprintf("%v/%s", scenario, s.name), func(t *testing.T) {
				cfg := NewConfig(scenario, corpus, time.Minute, 100)
				s.set(&cfg)
				err := cfg.validate()
				if wantErr := s.proteusOnly && scenario != ScenarioProteus; (err != nil) != wantErr {
					t.Fatalf("validate error = %v, want error: %v", err, wantErr)
				}
			})
		}
	}
}

// TestBaselineTimeline pins the brutal remap on the shared machine: a
// baseline's every ownership flip closes in the same virtual instant,
// the power-offs are exactly the scale-down victims, and no request
// ever sees an open window.
func TestBaselineTimeline(t *testing.T) {
	t.Parallel()
	for _, scenario := range []Scenario{ScenarioNaive, ScenarioConsistent} {
		t.Run(scenario.String(), func(t *testing.T) {
			cfg := testConfig(t, scenario)
			cfg.Telemetry = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if st.Transitions != 0 || st.MigratedOnDemand != 0 || st.DigestMisses != 0 || st.DigestFalsePos != 0 {
				t.Fatalf("a request saw an open window: transitions=%d migrated=%d digest misses=%d false pos=%d",
					st.Transitions, st.MigratedOnDemand, st.DigestMisses, st.DigestFalsePos)
			}
			var flip *telemetry.Event
			var flips, shrinks int
			var victims, poweredOff []int
			for _, ev := range res.Events.Events() {
				switch ev.Kind {
				case telemetry.EventOwnershipFlip:
					if flip != nil {
						t.Fatalf("flip %d->%d opened while %d->%d was still open", ev.From, ev.To, flip.From, flip.To)
					}
					flip = &ev
					flips++
					for i := ev.To; i < ev.From; i++ {
						victims = append(victims, i)
					}
					if ev.To < ev.From {
						shrinks++
					}
				case telemetry.EventTTLExpiry:
					if flip == nil {
						t.Fatalf("expiry %d->%d without an open flip", ev.From, ev.To)
					}
					if ev.At != flip.At || ev.From != flip.From || ev.To != flip.To {
						t.Fatalf("flip %d->%d at %v closed as %d->%d at %v, want the same instant",
							flip.From, flip.To, flip.At, ev.From, ev.To, ev.At)
					}
					flip = nil
				case telemetry.EventPowerOff:
					poweredOff = append(poweredOff, ev.Node)
				case telemetry.EventDigestBuild, telemetry.EventMigrationHit, telemetry.EventMigrationMiss:
					t.Fatalf("baseline recorded a %v event", ev.Kind)
				}
			}
			if flip != nil {
				t.Fatalf("flip %d->%d never closed", flip.From, flip.To)
			}
			if flips == 0 || shrinks == 0 {
				t.Fatalf("the plan produced %d flips and %d scale-downs; the test needs both", flips, shrinks)
			}
			if fmt.Sprint(poweredOff) != fmt.Sprint(victims) {
				t.Fatalf("powered off %v, want exactly the scale-down victims %v", poweredOff, victims)
			}
		})
	}
}
