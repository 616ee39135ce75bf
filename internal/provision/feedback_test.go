package provision

import (
	"math"
	"testing"
	"time"
)

const (
	testCap  = 100.0
	testSlot = 30 * time.Second
)

// plantDelay is a coarse open-loop plant: the measured p99.9 as a
// function of fleet utilisation. The bands straddle the controller's
// reference (400 ms) and bound (500 ms) so every regime is reachable.
func plantDelay(rate float64, n int) time.Duration {
	util := rate / (float64(n) * testCap)
	switch {
	case util < 0.7:
		return 100 * time.Millisecond
	case util < 0.9:
		return 380 * time.Millisecond // inside the deadband
	case util <= 1.0:
		return 460 * time.Millisecond // above reference, under bound
	default:
		return 600 * time.Millisecond // SLO violation
	}
}

// decideStates holds one measurement per plant regime: far under the
// reference, inside the deadband, above the reference, over the bound —
// so a Decide loop over them takes every branch (PI update, deadband,
// dwell/drain/energy gates, violation).
var decideStates = [4]State{
	{Delay: 100 * time.Millisecond, Rate: 2400, Active: 30, SlotWidth: testSlot},
	{Delay: 380 * time.Millisecond, Rate: 3600, Active: 30, SlotWidth: testSlot},
	{Delay: 460 * time.Millisecond, Rate: 4200, Active: 36, SlotWidth: testSlot},
	{Delay: 600 * time.Millisecond, Rate: 4600, Active: 40, SlotWidth: testSlot},
}

// paperFeedback builds the controller the paper evaluates: a 0.4 s
// reference under a 0.5 s bound, for a fleet of 1..n servers.
func paperFeedback(n int, perServerCapacity float64) *DelayFeedback {
	return NewDelayFeedback(FeedbackConfig{
		Reference:         400 * time.Millisecond,
		Bound:             500 * time.Millisecond,
		PerServerCapacity: perServerCapacity,
		Min:               1,
		Max:               n,
	})
}

func decideNext(d *DelayFeedback, i int) Target {
	s := decideStates[i%len(decideStates)]
	s.Slot = i
	return d.Decide(s)
}

// Once per slot in production, but in tight loops inside the policy
// sweeps: a slot decision must not allocate in any regime.
func TestDelayFeedbackDecideAllocs(t *testing.T) {
	d := paperFeedback(48, testCap)
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		decideNext(d, i)
		i++
	}); allocs != 0 {
		t.Fatalf("Decide allocates %.1f times per op, want 0", allocs)
	}
}

func BenchmarkDelayFeedbackDecide(b *testing.B) {
	d := paperFeedback(48, testCap)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		decideNext(d, i)
	}
}

// drive runs the controller against the plant for the given rate
// trajectory, one Decide per slot, and returns the fleet and delay
// trajectories.
func drive(t *testing.T, d *DelayFeedback, start int, rates []float64) (fleet []int, delays []time.Duration) {
	t.Helper()
	n := start
	for slot, rate := range rates {
		delay := plantDelay(rate, n)
		got := d.Decide(State{
			Slot:      slot,
			Now:       time.Duration(slot) * testSlot,
			SlotWidth: testSlot,
			Delay:     delay,
			Rate:      rate,
			Active:    n,
		})
		n = got.Servers
		fleet = append(fleet, n)
		delays = append(delays, delay)
	}
	return fleet, delays
}

func flips(fleet []int, start int) int {
	prev, count := start, 0
	for _, n := range fleet {
		if n != prev {
			count++
		}
		prev = n
	}
	return count
}

// TestFeedbackDynamics drives the controller through step, ramp, and
// flash-crowd trajectories and checks recovery time, tracking, and the
// no-thrash bound.
func TestFeedbackDynamics(t *testing.T) {
	cases := []struct {
		name     string
		start    int
		rates    func() []float64
		maxViol  int // slots with delay > bound
		maxFlips int
		check    func(t *testing.T, fleet []int, delays []time.Duration)
	}{
		{
			name:  "step up recovers fast",
			start: 2,
			rates: func() []float64 {
				r := make([]float64, 12)
				for i := range r {
					r[i] = 800
				}
				return r
			},
			maxViol:  2,
			maxFlips: 4,
			check: func(t *testing.T, fleet []int, delays []time.Duration) {
				// After recovery the delay must stay under the bound.
				for i := 3; i < len(delays); i++ {
					if delays[i] > 500*time.Millisecond {
						t.Errorf("slot %d: delay %v still violates the bound", i, delays[i])
					}
				}
				if last := fleet[len(fleet)-1]; last < 8 {
					t.Errorf("settled fleet %d cannot carry 800 req/s", last)
				}
			},
		},
		{
			name:  "diurnal ramp tracks without thrash",
			start: 5,
			rates: func() []float64 {
				r := make([]float64, 48)
				for i := range r {
					phase := 2 * math.Pi * float64(i) / 48
					r[i] = 500 - 300*math.Cos(phase) // valley 200, peak 800
				}
				return r
			},
			maxViol:  4,
			maxFlips: 24,
			check: func(t *testing.T, fleet []int, delays []time.Duration) {
				lo, hi := fleet[0], fleet[0]
				for _, n := range fleet {
					lo, hi = min(lo, n), max(hi, n)
				}
				if hi < 8 {
					t.Errorf("peak fleet %d never provisioned for 800 req/s", hi)
				}
				if lo > 5 {
					t.Errorf("valley fleet %d never shed toward 200 req/s", lo)
				}
			},
		},
		{
			name:  "flash crowd grows then returns",
			start: 4,
			rates: func() []float64 {
				r := make([]float64, 24)
				for i := range r {
					r[i] = 300
					if i >= 4 && i < 8 {
						r[i] = 900 // the surge
					}
				}
				return r
			},
			maxViol:  2,
			maxFlips: 12,
			check: func(t *testing.T, fleet []int, delays []time.Duration) {
				surgePeak := 0
				for i := 4; i < 8; i++ {
					surgePeak = max(surgePeak, fleet[i])
				}
				if surgePeak < 9 {
					t.Errorf("surge fleet %d cannot carry 900 req/s", surgePeak)
				}
				if last := fleet[len(fleet)-1]; last > 5 {
					t.Errorf("fleet %d never returned after the surge (want <= 5)", last)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := paperFeedback(10, testCap)
			rates := c.rates()
			fleet, delays := drive(t, d, c.start, rates)
			viol := 0
			for _, dl := range delays {
				if dl > 500*time.Millisecond {
					viol++
				}
			}
			if viol > c.maxViol {
				t.Errorf("%d SLO-violation slots, want <= %d (fleet %v)", viol, c.maxViol, fleet)
			}
			if f := flips(fleet, c.start); f > c.maxFlips {
				t.Errorf("%d fleet changes, want <= %d (thrash) (fleet %v)", f, c.maxFlips, fleet)
			}
			if c.check != nil {
				c.check(t, fleet, delays)
			}
		})
	}
}

func TestFeedbackBoundViolationGrowsImmediately(t *testing.T) {
	d := paperFeedback(10, testCap)
	got := d.Decide(State{Slot: 0, SlotWidth: testSlot, Delay: 600 * time.Millisecond, Rate: 450, Active: 3})
	if got.Servers != 6 || got.Reason != "grow:slo" {
		t.Fatalf("got %d (%s), want 6 (grow:slo)", got.Servers, got.Reason)
	}
}

func TestFeedbackScaleDownDeferredWhileDraining(t *testing.T) {
	d := paperFeedback(10, testCap)
	// Comfortable: 5 servers at 200 req/s and 100 ms p99.9 wants a shed,
	// but the previous window is still draining.
	s := State{Slot: 3, SlotWidth: testSlot, Delay: 100 * time.Millisecond, Rate: 200, Active: 5, InTransition: true, Draining: true}
	got := d.Decide(s)
	if got.Servers != 5 || got.Reason != "defer:drain" {
		t.Fatalf("draining: got %d (%s), want 5 (defer:drain)", got.Servers, got.Reason)
	}
	// Same measurement with the drain finished: the shed proceeds,
	// maxStepDown servers at a time.
	s.Slot, s.InTransition, s.Draining = 4, false, false
	got = d.Decide(s)
	if want := 5 - maxStepDown; got.Servers != want || got.Reason != "shed" {
		t.Fatalf("drained: got %d (%s), want %d (shed)", got.Servers, got.Reason, want)
	}
}

func TestFeedbackDwellBlocksBackToBackSheds(t *testing.T) {
	d := paperFeedback(10, testCap)
	s := State{SlotWidth: testSlot, Delay: 100 * time.Millisecond, Rate: 200, Active: 8}
	s.Slot = 0
	if got := d.Decide(s); got.Reason != "shed" {
		t.Fatalf("slot 0: got %s, want shed", got.Reason)
	}
	s.Active = 7
	for s.Slot = 1; s.Slot < dwellSlots; s.Slot++ {
		if got := d.Decide(s); got.Reason != "hold:dwell" {
			t.Fatalf("slot %d: got %s, want hold:dwell", s.Slot, got.Reason)
		}
	}
	if got := d.Decide(s); got.Reason != "shed" {
		t.Fatalf("slot %d: got %s, want shed after the dwell", s.Slot, got.Reason)
	}
}

func TestFeedbackEnergyGate(t *testing.T) {
	// With 1-second slots the dwell horizon saves ~98 J per shed server
	// — far under the 1500 J migration cost, so the controller refuses
	// to churn.
	d := paperFeedback(10, testCap)
	s := State{Slot: 0, SlotWidth: time.Second, Delay: 100 * time.Millisecond, Rate: 200, Active: 5}
	if got := d.Decide(s); got.Reason != "hold:energy" {
		t.Fatalf("got %s, want hold:energy", got.Reason)
	}
	// The same shed over 30-second slots saves ~2.9 kJ and goes through.
	s.SlotWidth = testSlot
	if got := d.Decide(s); got.Reason != "shed" {
		t.Fatalf("30 s slots: got %s, want shed", got.Reason)
	}
}

func TestFeedbackAntiWindupAtClamp(t *testing.T) {
	d := paperFeedback(10, testCap)
	// Pinned at Min with persistent negative error: the integral must
	// not wind up.
	s := State{SlotWidth: testSlot, Delay: 100 * time.Millisecond, Rate: 50, Active: 1}
	for slot := 0; slot < 20; slot++ {
		s.Slot = slot
		d.Decide(s)
	}
	if got := d.integral; got != 0 {
		t.Errorf("integral wound up to %v while pinned at Min", got)
	}
	// And the clamps bound it everywhere else.
	d2 := paperFeedback(10, testCap)
	s2 := State{SlotWidth: testSlot, Delay: 100 * time.Millisecond, Rate: 300, Active: 10}
	for slot := 0; slot < 50; slot++ {
		s2.Slot = slot
		got := d2.Decide(s2)
		s2.Active = got.Servers
	}
	if i := d2.integral; i < integralMin || i > integralMax {
		t.Errorf("integral %v escaped [%v, %v]", i, integralMin, integralMax)
	}
}

// The loop's shape is fixed, so Decide carries no guards for a zero
// step or dwell, or for an inverted clamp; this pins what those guards
// assumed.
func TestFeedbackDefaults(t *testing.T) {
	if maxStepDown < 1 || dwellSlots < 1 || migrationCostJ <= 0 {
		t.Errorf("step %d, dwell %d, migration cost %v J: want each positive", maxStepDown, dwellSlots, float64(migrationCostJ))
	}
	if !(integralMin < 0 && 0 < integralMax) || deadband <= 0 || kp <= 0 || ki <= 0 {
		t.Errorf("loop shape kp=%v ki=%v integral=[%v, %v] deadband=%v", kp, ki, integralMin, integralMax, deadband)
	}
	if got := paperFeedback(10, testCap).Name(); got != "delay-feedback" {
		t.Errorf("name = %q", got)
	}
}
