package provision

import (
	"testing"
	"time"
)

func TestStatic(t *testing.T) {
	p := Static{N: 7}
	if p.Name() != "static" {
		t.Errorf("name = %q", p.Name())
	}
	for _, s := range []State{{}, {Active: 3, Delay: time.Second, Rate: 1e6}} {
		if got := p.Decide(s); got.Servers != 7 {
			t.Errorf("Decide(%+v) = %d, want 7", s, got.Servers)
		}
	}
}

func TestPlanned(t *testing.T) {
	p := Planned{Plan: []int{4, 6, 8}}
	if p.Name() != "planned" {
		t.Errorf("name = %q", p.Name())
	}
	if got := (Planned{PolicyName: "rate-plan"}).Name(); got != "rate-plan" {
		t.Errorf("name = %q", got)
	}
	cases := []struct {
		slot, want int
	}{
		{-3, 4}, {0, 4}, {1, 6}, {2, 8},
		{5, 8}, // past the end: hold the last value
	}
	for _, c := range cases {
		if got := p.Decide(State{Slot: c.slot}).Servers; got != c.want {
			t.Errorf("slot %d: got %d, want %d", c.slot, got, c.want)
		}
	}
	if got := (Planned{}).Decide(State{Active: 5}).Servers; got != 5 {
		t.Errorf("empty plan: got %d, want hold at 5", got)
	}
}

func TestOracleLookahead(t *testing.T) {
	// A step from 100 to 900 req/s at t=70s. The oracle must
	// pre-provision while still inside the low-rate region, because its
	// lookahead window reaches the step.
	rate := func(t time.Duration) float64 {
		if t >= 70*time.Second {
			return 900
		}
		return 100
	}
	o := Oracle{Rate: rate, SlotWidth: 30 * time.Second, PerServerCapacity: 100, Min: 1, Max: 10}

	if got := o.Decide(State{Now: 0, Active: 1}); got.Servers != 1 {
		// Slot [0,30s] + lookahead to 60s: the step is just out of reach.
		t.Errorf("t=0: got %d, want 1", got.Servers)
	}
	got := o.Decide(State{Now: 30 * time.Second, Active: 1})
	if got.Servers != 9 || got.Reason != "grow:lookahead" {
		t.Errorf("t=30s: got %d (%s), want 9 (grow:lookahead)", got.Servers, got.Reason)
	}
	got = o.Decide(State{Now: 90 * time.Second, Active: 9})
	if got.Servers != 9 {
		t.Errorf("t=90s: got %d, want hold at 9", got.Servers)
	}
}

// TestLegacyEquivalence pins the historical two-threshold rule (the
// paper's evaluation policy) case by case.
func TestLegacyEquivalence(t *testing.T) {
	l := LegacyController{
		Reference:         400 * time.Millisecond,
		Bound:             500 * time.Millisecond,
		PerServerCapacity: 100,
		Min:               1,
		Max:               10,
	}
	cases := []struct {
		name       string
		active     int
		delay      time.Duration
		rate       float64
		want       int
		wantReason string
	}{
		{"bound violated grows past feed-forward", 5, 600 * time.Millisecond, 450, 6, "grow:slo"},
		{"above reference within bound holds", 5, 450 * time.Millisecond, 450, 5, "hold"},
		{"comfortable sheds one per slot", 7, 100 * time.Millisecond, 250, 6, "shed"},
		{"comfortable but rate demands growth", 4, 100 * time.Millisecond, 820, 9, "grow:rate"},
		{"clamped at max", 9, 600 * time.Millisecond, 2500, 10, "grow:slo"},
		{"clamped at min", 1, 100 * time.Millisecond, 10, 1, "hold"},
	}
	for _, c := range cases {
		got := l.Decide(State{Active: c.active, Delay: c.delay, Rate: c.rate})
		if got.Servers != c.want || got.Reason != c.wantReason {
			t.Errorf("%s: Decide(%d, %v, %.0f) = %d (%s), want %d (%s)",
				c.name, c.active, c.delay, c.rate, got.Servers, got.Reason, c.want, c.wantReason)
		}
	}
}

// Driving the legacy controller with the diurnal curve must track it:
// more servers at peak than at valley, and no thrashing (steps of one).
func TestLegacyTracksDiurnalCurve(t *testing.T) {
	c := LegacyController{Reference: 400 * time.Millisecond, Bound: 500 * time.Millisecond, PerServerCapacity: 40, Min: 1, Max: 10}
	current := 5
	var history []int
	for slot := 0; slot < 48; slot++ {
		// Synthetic rate curve: valley 133, peak 267.
		frac := float64(slot) / 48
		rate := 200 * (1 + (1.0/3)*cosApprox(frac))
		// Delay correlates loosely with load per server.
		perServer := rate / float64(current)
		delay := time.Duration(perServer / 40 * 0.3 * float64(time.Second))
		current = c.Decide(State{Active: current, Delay: delay, Rate: rate}).Servers
		history = append(history, current)
	}
	min, max := history[0], history[0]
	for i, n := range history {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
		if i > 0 {
			step := n - history[i-1]
			if step > 2 || step < -1 {
				t.Fatalf("controller thrashing at slot %d: %v", i, history)
			}
		}
	}
	if max < 7 || min > 5 {
		t.Fatalf("controller not tracking the curve: min=%d max=%d history=%v", min, max, history)
	}
}

// cosApprox maps [0,1) to a cosine-like curve peaking at 0.5.
func cosApprox(frac float64) float64 {
	x := frac - 0.5
	return 1 - 8*x*x // parabola peaking at 1, valley -1 at edges
}
