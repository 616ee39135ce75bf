package sim

import (
	"testing"
	"time"

	"proteus/internal/provision"
	"proteus/internal/telemetry"
)

// shedder always wants one server fewer — the most drain-hostile policy
// possible, used to force the actuation gate to engage.
type shedder struct{}

func (shedder) Name() string { return "shedder" }
func (shedder) Decide(s provision.State) provision.Target {
	n := s.Active - 1
	if n < 1 {
		n = 1
	}
	return provision.Target{Servers: n, Reason: "shed"}
}

// With the TTL longer than the slot width every scale-down's drain
// window is still open at the next slot boundary, so consecutive sheds
// must be deferred — and no shrink transition may ever begin mid-drain.
func TestPolicyScaleDownGatedWhileDraining(t *testing.T) {
	t.Parallel()
	cfg := testConfig(t, ScenarioProteus)
	cfg.TTL = 2 * cfg.SlotWidth
	cfg.Policy = shedder{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ScaleDownsDeferred == 0 {
		t.Errorf("TTL(%v) > slot(%v) but no scale-down was deferred; plan=%v",
			cfg.TTL, cfg.SlotWidth, res.Plan)
	}
	if res.Stats.MidDrainScaleDowns != 0 {
		t.Errorf("%d scale-downs issued mid-drain, want 0", res.Stats.MidDrainScaleDowns)
	}
	// Sheds still make progress between drains.
	if last := res.Plan[len(res.Plan)-1]; last >= cfg.CacheServers {
		t.Errorf("fleet never shrank: plan=%v", res.Plan)
	}
}

// Policy mode end to end: the delay-feedback controller drives the DES,
// the realized plan tracks the curve, decisions are logged, and the run
// stays deterministic.
func TestPolicyModeDelayFeedback(t *testing.T) {
	t.Parallel()
	res, other := runTwice(t, func() Config {
		cfg := testConfig(t, ScenarioProteus)
		cfg.Telemetry = true
		cfg.Policy = provision.NewDelayFeedback(provision.FeedbackConfig{
			Reference:         200 * time.Millisecond,
			Bound:             300 * time.Millisecond,
			PerServerCapacity: cfg.PerServerCapacity,
			Min:               1,
			Max:               cfg.CacheServers,
			SlotWidth:         cfg.SlotWidth,
		})
		return cfg
	})
	slots := int((res.Config.Duration + res.Config.SlotWidth - 1) / res.Config.SlotWidth)
	if len(res.Plan) != slots {
		t.Fatalf("realized plan has %d slots, want %d", len(res.Plan), slots)
	}
	lo, hi := res.Plan[0], res.Plan[0]
	for _, n := range res.Plan {
		if n < 1 || n > res.Config.CacheServers {
			t.Fatalf("plan value %d out of range", n)
		}
		lo, hi = min(lo, n), max(hi, n)
	}
	if lo == hi {
		t.Errorf("delay-feedback never changed the fleet: plan=%v", res.Plan)
	}
	if res.Stats.MidDrainScaleDowns != 0 {
		t.Errorf("%d mid-drain scale-downs, want 0", res.Stats.MidDrainScaleDowns)
	}
	// Slot 0's fleet comes from the initial plan; every later slot
	// boundary records one decision (holds included).
	if got := res.Events.Count(telemetry.EventProvisionDecision); got != uint64(slots-1) {
		t.Errorf("%d provision_decision events, want %d", got, slots-1)
	}

	if res.Stats != other.Stats {
		t.Fatalf("policy runs not deterministic:\n%+v\n%+v", res.Stats, other.Stats)
	}
	for i := range res.Plan {
		if res.Plan[i] != other.Plan[i] {
			t.Fatalf("realized plans differ at slot %d: %d vs %d", i, res.Plan[i], other.Plan[i])
		}
	}
}
