package sim

import (
	"testing"
	"time"

	"proteus/internal/provision"
)

// Controller mode: the realized plan must track the diurnal curve and
// stay within bounds, and the run must stay deterministic.
func TestControllerModeTracksLoad(t *testing.T) {
	t.Parallel()
	cfg := testConfig(t, ScenarioProteus)
	cfg.Policy = legacyControllerForTest(cfg)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slots := int((cfg.Duration + cfg.SlotWidth - 1) / cfg.SlotWidth)
	if len(res.Plan) != slots {
		t.Fatalf("realized plan has %d slots, want %d", len(res.Plan), slots)
	}
	min, max := res.Plan[0], res.Plan[0]
	for _, n := range res.Plan {
		if n < 1 || n > cfg.CacheServers {
			t.Fatalf("plan value %d out of range", n)
		}
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max == min {
		t.Fatalf("controller never changed the fleet: plan=%v", res.Plan)
	}
	// Peak-half slots should average more servers than valley-half.
	half := slots / 2
	sum := func(s []int) int {
		total := 0
		for _, v := range s {
			total += v
		}
		return total
	}
	valley := sum(res.Plan[:half/2]) + sum(res.Plan[slots-half/2:])
	peak := sum(res.Plan[half-half/2 : half+half/2])
	if peak <= valley {
		t.Fatalf("controller plan does not track the curve: peak=%d valley=%d plan=%v",
			peak, valley, res.Plan)
	}
}

func TestControllerModeDeterministic(t *testing.T) {
	t.Parallel()
	a, b := runTwice(t, func() Config {
		cfg := testConfig(t, ScenarioProteus)
		cfg.Policy = legacyControllerForTest(cfg)
		return cfg
	})
	if a.Stats != b.Stats {
		t.Fatalf("controller runs not deterministic:\n%+v\n%+v", a.Stats, b.Stats)
	}
	for i := range a.Plan {
		if a.Plan[i] != b.Plan[i] {
			t.Fatalf("realized plans differ at slot %d", i)
		}
	}
}

// Digest ablation flag: transitions happen but no migrations do.
func TestDisableDigest(t *testing.T) {
	t.Parallel()
	cfg := testConfig(t, ScenarioProteus)
	cfg.DisableDigest = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Transitions == 0 {
		t.Fatal("no transitions")
	}
	if res.Stats.MigratedOnDemand != 0 {
		t.Fatalf("digestless run migrated %d items", res.Stats.MigratedOnDemand)
	}
	// It must hit the database more than the full Proteus run.
	full, err := Run(testConfig(t, ScenarioProteus))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DBQueries <= full.Stats.DBQueries {
		t.Fatalf("digestless db queries %d not above full %d",
			res.Stats.DBQueries, full.Stats.DBQueries)
	}
}

// legacyControllerForTest builds the standard test controller.
func legacyControllerForTest(cfg Config) provision.Policy {
	return provision.LegacyController{
		Reference:         200 * time.Millisecond,
		Bound:             300 * time.Millisecond,
		PerServerCapacity: cfg.PerServerCapacity,
		Min:               1,
		Max:               cfg.CacheServers,
	}
}
