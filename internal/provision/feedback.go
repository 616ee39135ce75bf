package provision

import (
	"math"
	"time"

	"proteus/internal/power"
)

// FeedbackConfig parametrises the delay-feedback controller: the
// targets and the fleet it regulates. The loop's shape (gains, clamps,
// deadband, dwell, step and migration cost) is fixed below.
type FeedbackConfig struct {
	// Reference is the target high-percentile response time the loop
	// regulates to (paper: 0.4 s, chosen to tolerate overshoot under
	// the bound).
	Reference time.Duration
	// Bound is the delay SLO (paper: 0.5 s). A measurement above it
	// bypasses the PI loop and grows immediately.
	Bound time.Duration
	// PerServerCapacity (req/s) is the feed-forward term's capacity
	// estimate. 0 disables feed-forward (pure feedback).
	PerServerCapacity float64
	// Min and Max clamp the fleet.
	Min, Max int
	// SlotWidth is the decision period the energy gate prices a shed
	// over (0 falls back to State.SlotWidth per decision).
	SlotWidth time.Duration
}

// The loop's shape. No experiment varies it.
const (
	// kp and ki are the proportional and integral gains applied to the
	// relative delay error (Delay-Reference)/Reference. The control
	// output u = kp*err + integral scales the feed-forward fleet:
	// n = ceil(ff * (1+u)), so the integral term effectively learns
	// how far the true per-server capacity sits from the estimate.
	kp, ki = 0.6, 0.15
	// integralMin and integralMax clamp the integral term
	// (anti-windup). The lower clamp bounds how far below the
	// feed-forward estimate the loop may settle.
	integralMin, integralMax = -0.6, 1.0
	// deadband is the relative-error band around the reference inside
	// which the fleet holds (scale-ups demanded by the feed-forward
	// term still pass). Prevents slot-to-slot thrash on measurement
	// noise.
	deadband = 0.1
	// dwellSlots is the minimum number of slots after any fleet change
	// before the next scale-down. Scale-ups are never dwell-gated: the
	// SLO always wins.
	dwellSlots = 2
	// maxStepDown bounds servers shed per decision: a misread valley
	// costs one transition, not half the fleet.
	maxStepDown = 1
	// migrationCostJ estimates the joules one scale-down transition
	// burns under power.DefaultServer: roughly a boot's worth of peak
	// draw (the cost of being wrong) plus the migration window's extra
	// work. A scale-down is issued only when the joules it saves over
	// the dwell horizon beat it.
	migrationCostJ = 1500
)

// NewDelayFeedback returns the controller for cfg.
func NewDelayFeedback(cfg FeedbackConfig) *DelayFeedback {
	return &DelayFeedback{cfg: cfg}
}

// DelayFeedback is the real delay-feedback controller: PI feedback on
// the measured high-percentile delay against the reference, rate
// feed-forward, deadband + dwell-time hysteresis, and an energy gate
// that only sheds a server when the projected savings beat the
// migration cost. It keeps loop state across slots; one instance per
// controlled fleet.
type DelayFeedback struct {
	cfg FeedbackConfig

	integral   float64
	lastChange int  // slot of the last actuated fleet change
	changed    bool // a change has happened (lastChange is meaningful)
}

// Name implements Policy.
func (d *DelayFeedback) Name() string { return "delay-feedback" }

// Decide implements Policy. The loop, in order:
//
//  1. Bound violation: grow immediately past the feed-forward term,
//     bleed the integral (the backlog that caused the violation is not
//     steady-state evidence).
//  2. PI update on the relative error, frozen while a drain defers
//     actuation (no windup against a gate).
//  3. Desired fleet = ceil(feed-forward * (1+u)), u = kp*err+integral:
//     the loop learns the true capacity the estimate missed.
//  4. Deadband: inside it, only rate-demanded growth passes.
//  5. Scale-down passes dwell, drain, and energy gates, one server
//     (maxStepDown) at a time.
func (d *DelayFeedback) Decide(s State) Target {
	cfg := d.cfg
	current := clamp(s.Active, cfg.Min, cfg.Max)
	ff := ceilDiv(s.Rate, cfg.PerServerCapacity)

	// SLO violation: react now, reason later.
	if s.Delay > cfg.Bound {
		next := clamp(max(current+1, ff+1), cfg.Min, cfg.Max)
		// Keep only the non-negative half of the integral: the
		// violation invalidates any learned "capacity is better than
		// estimated" credit.
		if d.integral < 0 {
			d.integral = 0
		}
		if next != current {
			d.lastChange, d.changed = s.Slot, true
		}
		return Target{Servers: next, Reason: "grow:slo"}
	}

	err := 0.0
	if cfg.Reference > 0 {
		err = float64(s.Delay-cfg.Reference) / float64(cfg.Reference)
	}
	// Anti-windup: while a drain is deferring actuation, or the fleet
	// is pinned at a clamp the error is pushing past, integrating
	// would bank error the plant can never answer for.
	pinnedLow := current <= cfg.Min && err < 0
	pinnedHigh := current >= cfg.Max && err > 0
	if !(s.Draining && err < 0) && !pinnedLow && !pinnedHigh {
		d.integral += ki * err
		d.integral = math.Max(integralMin, math.Min(integralMax, d.integral))
	}
	u := kp*err + d.integral

	base := ff
	if base < 1 {
		// No feed-forward signal (unknown capacity or idle slot):
		// scale the current fleet instead.
		base = current
	}
	desired := int(math.Ceil(float64(base) * (1 + u)))
	desired = clamp(desired, cfg.Min, cfg.Max)

	// Deadband: near the reference, hold — except for growth the
	// feed-forward term demands (rate outran the fleet).
	if math.Abs(err) <= deadband {
		next := max(current, clamp(ff, cfg.Min, cfg.Max))
		if next > current {
			d.lastChange, d.changed = s.Slot, true
			return Target{Servers: next, Reason: "grow:rate"}
		}
		return Target{Servers: current, Reason: "hold"}
	}

	switch {
	case desired > current:
		d.lastChange, d.changed = s.Slot, true
		return Target{Servers: desired, Reason: "grow:delay"}
	case desired < current:
		if d.changed && s.Slot-d.lastChange < dwellSlots {
			return Target{Servers: current, Reason: "hold:dwell"}
		}
		if s.Draining {
			return Target{Servers: current, Reason: "defer:drain"}
		}
		next := current - min(maxStepDown, current-desired)
		next = clamp(next, cfg.Min, cfg.Max)
		if next == current {
			return Target{Servers: current, Reason: "hold"}
		}
		if !d.shedWorthIt(current-next, s) {
			return Target{Servers: current, Reason: "hold:energy"}
		}
		d.lastChange, d.changed = s.Slot, true
		return Target{Servers: next, Reason: "shed"}
	default:
		return Target{Servers: current, Reason: "hold"}
	}
}

// shedWorthIt applies the energy term: shedding k servers is worth a
// transition only when the joules saved over the dwell horizon (the
// minimum time the lower level is guaranteed to last) beat the
// migration cost. With very short slots the guaranteed savings shrink
// below the transition's price and the controller correctly refuses to
// churn.
func (d *DelayFeedback) shedWorthIt(k int, s State) bool {
	slot := d.cfg.SlotWidth
	if slot <= 0 {
		slot = s.SlotWidth
	}
	if slot <= 0 {
		return true // no horizon to price the shed over
	}
	horizon := slot * dwellSlots
	// A shed server drops from (at least) idle draw to standby draw.
	savedW := power.DefaultServer.Watts(true, 0) - power.DefaultServer.Watts(false, 0)
	savedJ := float64(k) * savedW * horizon.Seconds()
	return savedJ > migrationCostJ
}
