package sim

import (
	"slices"
	"testing"
	"time"

	"proteus/internal/workload"
)

func TestEngineOrdering(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	var order []int
	e.At(3*time.Second, func() { order = append(order, 3) })
	e.At(1*time.Second, func() { order = append(order, 1) })
	e.At(2*time.Second, func() { order = append(order, 2) })
	e.Run(time.Minute)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != time.Minute {
		t.Fatalf("Now = %v, want horizon", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func() { order = append(order, i) })
	}
	e.Run(time.Minute)
	for i, got := range order {
		if got != i {
			t.Fatalf("simultaneous events reordered: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	var at []time.Duration
	e.At(time.Second, func() {
		e.After(2*time.Second, func() { at = append(at, e.Now()) })
	})
	e.Run(time.Minute)
	if len(at) != 1 || at[0] != 3*time.Second {
		t.Fatalf("nested event at %v", at)
	}
}

func TestEnginePastSchedulingClamps(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	fired := time.Duration(-1)
	e.At(10*time.Second, func() {
		e.At(time.Second, func() { fired = e.Now() }) // in the past
	})
	e.Run(time.Minute)
	if fired != 10*time.Second {
		t.Fatalf("past event fired at %v, want clamp to 10s", fired)
	}
}

func TestEngineHorizonStopsEvents(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	ran := false
	e.At(2*time.Hour, func() { ran = true })
	e.Run(time.Hour)
	if ran {
		t.Fatal("event beyond horizon executed")
	}
	if e.pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.pending())
	}
	if e.Now() != time.Hour {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestEngineClock(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	clock := e.Clock()
	t0 := clock()
	e.At(90*time.Second, func() {})
	e.Run(2 * time.Minute)
	if got := clock().Sub(t0); got != 2*time.Minute {
		t.Fatalf("clock advanced %v, want 2m", got)
	}
}

// Advance's horizon is inclusive (a skip landing exactly on a deadline
// fires it), each callback reads its own time, events a callback
// schedules inside the skip fire in the same skip, and the clock ends at
// the skip's end with later events left pending.
func TestEngineAdvance(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	type firing struct {
		name string
		at   time.Duration
	}
	var fired []firing
	note := func(name string) func() {
		return func() { fired = append(fired, firing{name, e.Now()}) }
	}
	e.After(3*time.Second, note("c"))
	e.After(time.Second, func() {
		note("a")()
		e.After(time.Second, note("b")) // 1s + 1s: before c
	})
	e.After(10*time.Second, note("edge"))
	e.After(10*time.Second+1, note("late"))

	e.Advance(0)
	e.Advance(-time.Second)
	if len(fired) != 0 || e.Now() != 0 {
		t.Fatalf("a non-positive skip fired %v, clock %v", fired, e.Now())
	}
	e.Advance(10 * time.Second)
	want := []firing{{"a", time.Second}, {"b", 2 * time.Second}, {"c", 3 * time.Second}, {"edge", 10 * time.Second}}
	if !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if e.Now() != 10*time.Second || e.pending() != 1 {
		t.Fatalf("after the skip: clock %v, %d pending; want 10s, 1", e.Now(), e.pending())
	}
	e.Advance(time.Second)
	if last := fired[len(fired)-1]; last != (firing{"late", 10*time.Second + 1}) || e.Now() != 11*time.Second {
		t.Fatalf("second skip: last fired %v, clock %v", last, e.Now())
	}
}

func TestServiceQueueSingleServer(t *testing.T) {
	t.Parallel()
	q := newServiceQueue(1)
	// Three jobs of 10ms arriving together: completions at 10/20/30ms.
	for i, want := range []time.Duration{10, 20, 30} {
		if got := q.schedule(0, 10*time.Millisecond); got != want*time.Millisecond {
			t.Fatalf("job %d done at %v, want %vms", i, got, want)
		}
	}
	// A job arriving after the backlog drains starts immediately.
	if got := q.schedule(time.Second, 5*time.Millisecond); got != time.Second+5*time.Millisecond {
		t.Fatalf("idle-arrival done at %v", got)
	}
	if got := q.takeBusy(); got != 35*time.Millisecond {
		t.Fatalf("takeBusy = %v, want 35ms", got)
	}
	if got := q.takeBusy(); got != 0 {
		t.Fatalf("second takeBusy = %v, want 0", got)
	}
}

func TestServiceQueueParallelism(t *testing.T) {
	t.Parallel()
	q := newServiceQueue(2)
	// Four 10ms jobs on 2 executors: done at 10,10,20,20.
	done := []time.Duration{
		q.schedule(0, 10*time.Millisecond),
		q.schedule(0, 10*time.Millisecond),
		q.schedule(0, 10*time.Millisecond),
		q.schedule(0, 10*time.Millisecond),
	}
	want := []time.Duration{10, 10, 20, 20}
	for i := range done {
		if done[i] != want[i]*time.Millisecond {
			t.Fatalf("done = %v", done)
		}
	}
}

func TestPlanProvisioningShape(t *testing.T) {
	t.Parallel()
	rate := workload.DefaultDiurnal(200, 24*time.Hour)
	plan := PlanProvisioning(rate, 24*time.Hour, 30*time.Minute, rate.Mean/7.5, 1, 10)
	if len(plan) != 48 {
		t.Fatalf("plan has %d slots, want 48", len(plan))
	}
	min, max := plan[0], plan[0]
	for _, n := range plan {
		if n < 1 || n > 10 {
			t.Fatalf("plan value %d out of range", n)
		}
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max != 10 {
		t.Fatalf("plan never reaches the full fleet: max=%d", max)
	}
	if min > 6 {
		t.Fatalf("plan never scales down: min=%d", min)
	}
	// The peak slot must be where the rate peaks (mid-period).
	if plan[24] < plan[0] {
		t.Fatalf("plan[24]=%d < plan[0]=%d; peak misplaced", plan[24], plan[0])
	}
}
