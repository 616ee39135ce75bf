package cluster

import (
	"sync"
	"testing"
	"time"

	"proteus/internal/provision"
)

func TestSupervisorValidation(t *testing.T) {
	if _, err := NewSupervisor(SupervisorConfig{}); err == nil {
		t.Error("empty supervisor config accepted")
	}
}

// Drive the supervisor with synthetic measurements and watch it scale
// the live fleet both ways.
func TestSupervisorScalesFleet(t *testing.T) {
	coord, locals, timer := newTestCluster(t, 4, 2)

	var (
		mu     sync.Mutex
		sample = Sample{Delay: 600 * time.Millisecond, Rate: 300}
	)
	decisions := make(chan [2]int, 64)
	policy := provision.LegacyController{
		Reference:         400 * time.Millisecond,
		Bound:             500 * time.Millisecond,
		PerServerCapacity: 100,
		Min:               1,
		Max:               4,
	}
	sup, err := NewSupervisor(SupervisorConfig{
		Coordinator: coord,
		Policy:      policy,
		Sample: func() Sample {
			mu.Lock()
			defer mu.Unlock()
			return sample
		},
		Every:      10 * time.Millisecond,
		OnDecision: func(from, to int) { decisions <- [2]int{from, to} },
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Start()
	defer sup.Stop()

	waitFor := func(want int) {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for {
			select {
			case <-decisions:
				if coord.Active() == want {
					return
				}
			case <-deadline:
				t.Fatalf("fleet never reached %d (at %d)", want, coord.Active())
			}
		}
	}

	// High delay + high rate: grow to the rate-implied fleet (3) and
	// beyond while the bound stays violated.
	waitFor(4)
	if !locals[3].Running() {
		t.Fatal("scaled-up server not powered")
	}

	// Calm measurements: shed one server per slot toward rate/capacity.
	// Each scale-down opens a TTL drain window; further scale-downs are
	// deferred until it closes, so the manual timer must fire between
	// sheds (4 -> 3, drain, 3 -> 2).
	mu.Lock()
	sample = Sample{Delay: 50 * time.Millisecond, Rate: 150}
	mu.Unlock()
	waitFor(3)
	// The shed's drain window is open (only the manual timer closes
	// it): the next decision must hold rather than scale down.
	select {
	case d := <-decisions:
		if d[1] < d[0] {
			t.Fatalf("scale-down %d -> %d issued mid-drain", d[0], d[1])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no decision while draining")
	}
	timer.Fire()
	waitFor(2)

	sup.Stop() // idempotent with the deferred Stop
}
