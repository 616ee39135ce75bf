// Package sim is the discrete-event simulator that stands in for the
// paper's 40-server testbed. It drives the *same* production code —
// core.Placement routing, bloom digests, cache.Cache LRU stores — under
// a virtual clock, modelling only what the real hardware contributed:
// network round-trips, database service times with bounded per-shard
// concurrency (the overload mechanism behind the Fig. 9 delay spikes),
// closed-loop RBE users, and per-server power draw. A simulated day of
// traffic runs in seconds, which is what makes regenerating every
// figure of the evaluation practical.
package sim

import "time"

// Engine is a deterministic discrete-event scheduler. Events fire in
// (at, seq) order, seq being the order they were scheduled in: a total
// order, so what fires when depends on nothing about the queue's shape.
type Engine struct {
	now    time.Duration
	events []event // arity-ary min-heap on (at, seq), held by value
	seq    uint64
	base   time.Time
}

// NewEngine returns an engine positioned at virtual time 0.
func NewEngine() *Engine {
	return &Engine{base: time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Clock adapts virtual time to the time.Time interface components such
// as cache.Cache expect.
func (e *Engine) Clock() func() time.Time {
	return func() time.Time { return e.base.Add(e.now) }
}

// Time maps a virtual offset to the absolute time the Clock would
// report at that offset (completion callbacks know their finish offset
// before the clock reaches it).
func (e *Engine) Time(d time.Duration) time.Time { return e.base.Add(d) }

// At schedules fn at absolute virtual time t. Scheduling in the past
// fires the event at the current time (never rewinds the clock). The
// engine holds fn only until it has fired, so a caller may schedule the
// same func value again and again.
func (e *Engine) At(t time.Duration, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := event{at: t, seq: e.seq, fn: fn}
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / arity
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.events = h
}

// After schedules fn d from now.
func (e *Engine) After(d time.Duration, fn func()) {
	e.At(e.now+d, fn)
}

// Run executes events in time order until the queue is empty or the
// next event is at or beyond the horizon; the clock finishes at the
// horizon.
func (e *Engine) Run(until time.Duration) {
	for len(e.events) > 0 && e.events[0].at < until {
		next := e.pop()
		e.now = next.at
		next.fn()
	}
	if e.now < until {
		e.now = until
	}
}

// Advance moves the clock d forward, firing every event due at or
// before the new time, each with the clock reading its own time. It is
// how an externally stepped driver (Harness, the conformance checker's
// live plane) spends a skip: Run's horizon is exclusive, and a skip that
// lands exactly on a deadline must fire it.
func (e *Engine) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	until := e.now + d
	for len(e.events) > 0 && e.events[0].at <= until {
		next := e.pop()
		e.now = next.at
		next.fn()
	}
	e.now = until
}

// Timer adapts the engine to the transition machine's After hook.
// Engine events cannot be cancelled; the machine recognises a
// superseded expiry by its generation.
func (e *Engine) Timer(d time.Duration, fn func()) (cancel func()) {
	e.After(d, fn)
	return func() {}
}

// pending returns the number of queued events (tests).
func (e *Engine) pending() int { return len(e.events) }

// arity is the heap's fan-out, chosen by measurement (EXPERIMENTS.md
// A11): at the ~1k events a closed user loop keeps pending 2 and 4 cost
// the same, 4 is ahead once the heap outgrows the cache (trace replay),
// 8 is behind everywhere.
const arity = 4

type event struct {
	at  time.Duration
	seq uint64 // FIFO tie-break for simultaneous events
	fn  func()
}

func (ev *event) before(other *event) bool {
	return ev.at < other.at || (ev.at == other.at && ev.seq < other.seq)
}

// pop removes and returns the earliest event.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // or the slice keeps the fired closure, and all it captured, alive
	h = h[:n]
	e.events = h
	if n == 0 {
		return top
	}
	// Sift the former tail down from the root.
	i := 0
	for {
		first := i*arity + 1
		if first >= n {
			break
		}
		least, end := first, min(first+arity, n)
		for c := first + 1; c < end; c++ {
			if h[c].before(&h[least]) {
				least = c
			}
		}
		if !h[least].before(&last) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = last
	return top
}
