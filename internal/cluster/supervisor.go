package cluster

import (
	"errors"
	"log"
	"time"

	"proteus/internal/faultinject"
	"proteus/internal/provision"
	"proteus/internal/telemetry"
)

// Sample is one provisioning-slot measurement: the high-percentile
// response time and the request rate observed during the ending slot.
type Sample struct {
	Delay time.Duration
	Rate  float64
}

// Supervisor closes the loop in real time: every slot it reads a
// measurement, asks the provisioning Policy for the next fleet size,
// and has the Coordinator actuate it with a smooth transition — the
// paper's "feedback control algorithm along with Proteus". Actuation
// is TTL-aware: a scale-down is never issued while a previous window
// is still draining (the decision is deferred to the next slot and
// counted).
type Supervisor struct {
	coord  *Coordinator
	policy provision.Policy
	sample func() Sample
	every  time.Duration
	logger *log.Logger
	faults *faultinject.Injector
	// onDecision, when set, observes every slot decision (tests).
	onDecision func(from, to int)

	slot int // 0-based tick ordinal fed to the policy

	// Last Decide inputs and output, surfaced as gauges so the control
	// loop's state is scrapeable rather than log-only.
	delayGauge   *telemetry.Gauge
	rateGauge    *telemetry.Gauge
	targetGauge  *telemetry.Gauge
	ticks        *telemetry.Counter
	droppedTick  *telemetry.Counter
	deferredTick *telemetry.Counter

	stop chan struct{}
	done chan struct{}
}

// SupervisorConfig configures a Supervisor.
type SupervisorConfig struct {
	// Coordinator actuates decisions (required).
	Coordinator *Coordinator
	// Policy decides fleet sizes (required).
	Policy provision.Policy
	// Sample returns the ending slot's measurement and resets the
	// window (required).
	Sample func() Sample
	// Every is the slot width (the paper updates every 30 minutes).
	Every time.Duration
	// Logger receives decision logs; nil disables.
	Logger *log.Logger
	// Faults, when non-nil, lets OpTick rules perturb the control loop:
	// KindError/KindDrop skip the slot's decision (a lost measurement),
	// KindDelay stalls it.
	Faults *faultinject.Injector
	// OnDecision observes decisions (tests); may be nil.
	OnDecision func(from, to int)
	// Telemetry receives the control loop's gauges (last Decide inputs
	// and target) and tick counters. Optional.
	Telemetry *telemetry.Registry
}

// NewSupervisor builds a stopped supervisor; call Start.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.Coordinator == nil || cfg.Policy == nil || cfg.Sample == nil {
		return nil, errors.New("cluster: supervisor needs coordinator, policy and sample")
	}
	if cfg.Every <= 0 {
		return nil, errors.New("cluster: supervisor slot width must be positive")
	}
	sup := &Supervisor{
		coord:      cfg.Coordinator,
		policy:     cfg.Policy,
		sample:     cfg.Sample,
		every:      cfg.Every,
		logger:     cfg.Logger,
		faults:     cfg.Faults,
		onDecision: cfg.OnDecision,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	reg := cfg.Telemetry
	sup.delayGauge = reg.Gauge("proteus_supervisor_delay_seconds",
		"last slot's high-percentile response time fed to Decide").With()
	sup.rateGauge = reg.Gauge("proteus_supervisor_rate",
		"last slot's request rate (req/s) fed to Decide").With()
	sup.targetGauge = reg.Gauge("proteus_supervisor_target_nodes",
		"fleet size Decide asked for in the last slot").With()
	tickVec := reg.Counter("proteus_supervisor_ticks_total",
		"slot decisions by outcome", "outcome")
	sup.ticks = tickVec.With("decided")
	sup.droppedTick = tickVec.With("dropped")
	sup.deferredTick = tickVec.With("deferred")
	return sup, nil
}

// Start launches the control loop. Call Stop to terminate it; Start
// must be called at most once.
func (s *Supervisor) Start() {
	go s.loop()
}

// Stop terminates the loop and waits for it to exit.
func (s *Supervisor) Stop() {
	select {
	case <-s.stop:
		// already stopped
	default:
		close(s.stop)
	}
	<-s.done
}

func (s *Supervisor) loop() {
	defer close(s.done)
	ticker := time.NewTicker(s.every)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.tick()
		}
	}
}

// tick executes one slot decision.
func (s *Supervisor) tick() {
	if s.faults != nil {
		switch d := s.faults.Decide(faultinject.AnyServer, faultinject.OpTick); d.Kind {
		case faultinject.KindError, faultinject.KindDrop:
			s.droppedTick.Inc()
			if s.logger != nil {
				s.logger.Printf("supervisor: slot decision dropped (injected fault)")
			}
			return
		case faultinject.KindDelay, faultinject.KindSlowRead:
			time.Sleep(d.Delay)
		}
	}
	m := s.sample()
	// One epoch per decision: the prefix, the open window and its
	// direction are read at a single instant, so a TTL expiry cannot
	// fall between them.
	ep := s.coord.Epoch()
	current := ep.Active
	draining := ep.Draining()
	slot := s.slot
	s.slot++
	target := s.policy.Decide(provision.State{
		Slot:         slot,
		Now:          time.Duration(slot) * s.every,
		SlotWidth:    s.every,
		Delay:        m.Delay,
		Rate:         m.Rate,
		Active:       current,
		InTransition: ep.Open(),
		Draining:     draining,
	})
	next := target.Servers
	s.ticks.Inc()
	s.delayGauge.Set(m.Delay.Seconds())
	s.rateGauge.Set(m.Rate)
	s.targetGauge.Set(float64(next))
	// TTL-aware actuation gate: while a scale-down's window is still
	// draining, issuing another scale-down would finalize it early and
	// power off servers that old owners still need. Defer to the next
	// slot instead; the policy re-decides from fresher data then.
	if next < current && draining {
		s.deferredTick.Inc()
		if s.logger != nil {
			s.logger.Printf("supervisor: %s asked %d -> %d mid-drain; deferred", s.policy.Name(), current, next)
		}
		next = current
	}
	if s.onDecision != nil {
		s.onDecision(current, next)
	}
	if next == current {
		return
	}
	if s.logger != nil {
		s.logger.Printf("supervisor: %s delay=%v rate=%.1f req/s (%s): active %d -> %d",
			s.policy.Name(), m.Delay, m.Rate, target.Reason, current, next)
	}
	if err := s.coord.SetActive(next); err != nil {
		if s.logger != nil {
			s.logger.Printf("supervisor: SetActive(%d): %v", next, err)
		}
	}
}
