package provision

import "time"

// Static keeps a fixed fleet — the paper's Table II "Static" row, and
// the energy ceiling every dynamic policy is measured against.
type Static struct {
	// N is the fleet size to hold.
	N int
}

// Name implements Policy.
func (s Static) Name() string { return "static" }

// Decide implements Policy.
func (s Static) Decide(State) Target {
	return Target{Servers: s.N, Reason: "hold"}
}

// Planned follows a precomputed per-slot plan — the open-loop
// rate-proportional stand-in (sim.PlanProvisioning) wrapped as a
// Policy. Slots past the end of the plan hold its last value.
type Planned struct {
	// Plan is the per-slot fleet size (required, non-empty).
	Plan []int
	// PolicyName labels the plan ("rate-plan", "static-plan", ...);
	// empty defaults to "planned".
	PolicyName string
}

// Name implements Policy.
func (p Planned) Name() string {
	if p.PolicyName == "" {
		return "planned"
	}
	return p.PolicyName
}

// Decide implements Policy.
func (p Planned) Decide(s State) Target {
	if len(p.Plan) == 0 {
		return Target{Servers: s.Active, Reason: "hold"}
	}
	i := s.Slot
	if i < 0 {
		i = 0
	}
	if i >= len(p.Plan) {
		i = len(p.Plan) - 1
	}
	return Target{Servers: p.Plan[i], Reason: "plan"}
}

// Oracle provisions with perfect knowledge of the offered-load curve:
// each slot gets exactly enough servers for the true peak rate over the
// slot plus a lookahead window, so ramps are pre-provisioned before the
// load arrives. It is the lower bound a reactive policy chases — not
// realizable outside the simulator, where the curve is known.
type Oracle struct {
	// Rate returns the true offered load (req/s) at a time relative to
	// the measurement epoch (required).
	Rate func(time.Duration) float64
	// SlotWidth is the provisioning period (required).
	SlotWidth time.Duration
	// Lookahead extends the scan past the slot's end so boots complete
	// before the demand they serve (default: one slot).
	Lookahead time.Duration
	// PerServerCapacity is the sustainable req/s per server (required).
	PerServerCapacity float64
	// Min and Max clamp the fleet.
	Min, Max int
}

// Name implements Policy.
func (o Oracle) Name() string { return "oracle" }

// Decide implements Policy.
func (o Oracle) Decide(s State) Target {
	look := o.Lookahead
	if look <= 0 {
		look = o.SlotWidth
	}
	span := o.SlotWidth + look
	peak := 0.0
	const samples = 20
	for i := 0; i <= samples; i++ {
		t := s.Now + span*time.Duration(i)/samples
		if r := o.Rate(t); r > peak {
			peak = r
		}
	}
	n := clamp(ceilDiv(peak, o.PerServerCapacity), o.Min, o.Max)
	reason := "hold"
	switch {
	case n > s.Active:
		reason = "grow:lookahead"
	case n < s.Active:
		reason = "shed:lookahead"
	}
	return Target{Servers: n, Reason: reason}
}

// LegacyController is the original two-threshold heuristic of the
// paper's evaluation (a 0.4 s reference under a 0.5 s delay bound):
// feed-forward from the measured rate, grow one past it on a bound
// violation, shed one server per slot when the delay is comfortably
// under the reference. It stays as the historical comparison baseline
// (ablation A3); new callers should prefer DelayFeedback.
type LegacyController struct {
	// Reference is the target high-percentile response time.
	Reference time.Duration
	// Bound is the delay SLO.
	Bound time.Duration
	// PerServerCapacity estimates sustainable req/s per server.
	PerServerCapacity float64
	// Min and Max clamp the fleet.
	Min, Max int
}

// Name implements Policy.
func (l LegacyController) Name() string { return "legacy-feedback" }

// Decide implements Policy.
func (l LegacyController) Decide(s State) Target {
	current := s.Active
	if current < l.Min {
		current = l.Min
	}
	feedForward := current
	if l.PerServerCapacity > 0 {
		feedForward = ceilDiv(s.Rate, l.PerServerCapacity)
	}

	next := current
	reason := "hold"
	switch {
	case s.Delay > l.Bound:
		// SLO violated: grow immediately, at least one server above
		// the feed-forward estimate.
		next = max(current+1, feedForward+1)
		reason = "grow:slo"
	case s.Delay > l.Reference:
		// Above reference but within bound: hold, or follow the
		// feed-forward term upward only.
		next = max(current, feedForward)
		if next > current {
			reason = "grow:rate"
		}
	default:
		// Comfortable: shed at most one server per slot toward the
		// feed-forward target (hysteresis against oscillation).
		if feedForward < current {
			next = current - 1
			reason = "shed"
		} else {
			next = max(current, feedForward)
			if next > current {
				reason = "grow:rate"
			}
		}
	}
	return Target{Servers: clamp(next, l.Min, l.Max), Reason: reason}
}
