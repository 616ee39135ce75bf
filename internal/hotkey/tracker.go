package hotkey

import "sort"

// TrackerConfig tunes the promotion policy. The zero value of every
// field selects a usable default.
type TrackerConfig struct {
	// Capacity is the sketch counter budget (default 128). It should be
	// several times MaxHot so the sketch's error bound stays well below
	// the promotion threshold.
	Capacity int
	// MaxHot bounds the promoted set (default 16): replication costs
	// R-1 copies per hot key, so the set must stay small.
	MaxHot int
	// Window is the number of observations per decision epoch
	// (default 4096). Promotions and demotions happen only at window
	// boundaries; between them the hot set is stable.
	Window uint64
	// PromoteShare is the minimum share of a window's observations a
	// key needs to be promoted (default 0.01, i.e. 1%). Half of it is
	// the hysteresis floor: a promoted key is demoted only when its
	// share falls below PromoteShare/2, so a key sitting at the
	// threshold does not flap every window.
	PromoteShare float64
}

func (c TrackerConfig) withDefaults() TrackerConfig {
	if c.Capacity < 1 {
		c.Capacity = 128
	}
	if c.MaxHot < 1 {
		c.MaxHot = 16
	}
	if c.Window == 0 {
		c.Window = 4096
	}
	if c.PromoteShare <= 0 {
		c.PromoteShare = 0.01
	}
	return c
}

// Change is one hot-set transition decided at a window boundary.
type Change struct {
	Key string
	// Promote is true for a promotion, false for a demotion.
	Promote bool
}

// Tracker feeds an observation stream through a space-saving sketch and
// maintains the promoted hot set with hysteresis. Decisions are a pure
// function of the observation sequence: same stream, same promotions.
type Tracker struct {
	cfg    TrackerConfig
	sketch *Sketch
	hot    map[string]bool
	seen   uint64 // observations in the current window
	total  uint64 // decayed observation total, aged with the sketch
}

// NewTracker builds a tracker. The caller provides locking when sharing
// it across goroutines (the cluster coordinator wraps it in its own
// mutex).
func NewTracker(cfg TrackerConfig) *Tracker {
	cfg = cfg.withDefaults()
	return &Tracker{
		cfg:    cfg,
		sketch: NewSketch(cfg.Capacity),
		hot:    make(map[string]bool),
	}
}

// Observe records one request for key. At window boundaries it returns
// the promotions and demotions decided for the next window (sorted by
// key, promotions first); otherwise it returns nil.
func (t *Tracker) Observe(key string) []Change {
	t.sketch.Observe(key)
	t.seen++
	t.total++
	if t.seen < t.cfg.Window {
		return nil
	}
	t.seen = 0
	changes := t.decide()
	// Age the sketch so a cooling key's share actually falls: without
	// decay, counts only grow and demotion would never trigger.
	t.sketch.Decay()
	t.total /= 2
	return changes
}

// decide recomputes the hot set from the sketch at a window boundary.
func (t *Tracker) decide() []Change {
	var changes []Change
	total := float64(t.total)
	if total == 0 {
		return nil
	}

	// Demotions first: a key leaves when its guaranteed share
	// (estimate minus error bound) can no longer clear the hysteresis
	// floor, or when it lost its counter entirely.
	for _, key := range sortedKeys(t.hot) {
		est, err, tracked := t.sketch.Count(key)
		if tracked && float64(est-err)/total >= t.cfg.PromoteShare/2 {
			continue
		}
		delete(t.hot, key)
		changes = append(changes, Change{Key: key, Promote: false})
	}

	// Promotions: the top counters whose guaranteed count clears the
	// promotion threshold, best first, up to the MaxHot budget.
	budget := t.cfg.MaxHot - len(t.hot)
	for _, e := range t.sketch.Top(0) {
		if budget <= 0 {
			break
		}
		if t.hot[e.Key] {
			continue
		}
		if float64(e.Count-e.Err)/total < t.cfg.PromoteShare {
			break // Top is sorted; nothing below clears the bar either.
		}
		t.hot[e.Key] = true
		changes = append(changes, Change{Key: e.Key, Promote: true})
		budget--
	}

	sort.Slice(changes, func(i, j int) bool {
		if changes[i].Promote != changes[j].Promote {
			return changes[i].Promote
		}
		return changes[i].Key < changes[j].Key
	})
	return changes
}

// Hot reports whether key is currently promoted.
func (t *Tracker) Hot(key string) bool { return t.hot[key] }

// HotKeys returns the promoted set, sorted.
func (t *Tracker) HotKeys() []string { return sortedKeys(t.hot) }

// Reset drops all state (sketch, hot set, window position).
func (t *Tracker) Reset() {
	t.sketch.Reset()
	t.hot = make(map[string]bool)
	t.seen = 0
	t.total = 0
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
