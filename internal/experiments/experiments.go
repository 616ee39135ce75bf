// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI) from this repository's components. Each FigN
// function returns the figure's data series plus a Render method that
// prints the same rows the paper plots. Absolute numbers reflect the
// simulated substrate, not the authors' 40-server testbed; the shapes —
// who wins, where the spikes are, the savings ratios — are the
// reproduction targets (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"time"

	"proteus/internal/sim"
	"proteus/internal/wiki"
)

// Scale sizes an experiment run. Quick keeps every figure under a few
// seconds for tests and `go test -bench`; Full is the paper-shaped run
// for `proteus-bench -full`.
type Scale struct {
	// Name labels output.
	Name string
	// CorpusPages is the synthetic Wikipedia slice size.
	CorpusPages int
	// MeanRPS is the mean offered load of the compressed day.
	MeanRPS float64
	// Duration is the compressed day length (the diurnal period).
	Duration time.Duration
	// SlotWidth is the provisioning slot (Duration/48 matches the
	// paper's 30-minute slots).
	SlotWidth time.Duration
	// CachePagesPerServer sizes each cache server.
	CachePagesPerServer int
	// Seed fixes all randomness.
	Seed int64
}

// Tiny is the sub-second scale used by unit tests and the default
// `go test -bench` run: every figure regenerates in well under a
// second while preserving the qualitative shapes.
func Tiny() Scale {
	return Scale{
		Name:                "tiny",
		CorpusPages:         8000,
		MeanRPS:             200,
		Duration:            2 * time.Minute,
		SlotWidth:           5 * time.Second,
		CachePagesPerServer: 600,
		Seed:                1,
	}
}

// Quick is the test/bench scale: a compressed day of 8 minutes.
func Quick() Scale {
	return Scale{
		Name:                "quick",
		CorpusPages:         50000,
		MeanRPS:             600,
		Duration:            8 * time.Minute,
		SlotWidth:           10 * time.Second,
		CachePagesPerServer: 4000,
		Seed:                1,
	}
}

// Full is the paper-shaped scale: 48 slots, heavier load, bigger
// corpus. A full figure set takes a few minutes.
func Full() Scale {
	return Scale{
		Name:                "full",
		CorpusPages:         400000,
		MeanRPS:             1500,
		Duration:            48 * time.Minute,
		SlotWidth:           time.Minute,
		CachePagesPerServer: 25000,
		Seed:                1,
	}
}

// Corpus materialises the scale's synthetic Wikipedia slice.
func (s Scale) Corpus() (*wiki.Corpus, error) {
	return wiki.New(s.CorpusPages, wiki.DefaultPageSize)
}

// Slots returns the number of provisioning slots.
func (s Scale) Slots() int {
	return int((s.Duration + s.SlotWidth - 1) / s.SlotWidth)
}

// config is the configuration every scenario run of the evaluation
// starts from: the scale's day, load, cache size and seed.
func (s Scale) config(scenario sim.Scenario, corpus *wiki.Corpus) sim.Config {
	cfg := sim.NewConfig(scenario, corpus, s.Duration, s.MeanRPS)
	cfg.SlotWidth = s.SlotWidth
	cfg.CachePagesPerServer = s.CachePagesPerServer
	cfg.Seed = s.Seed
	cfg.Warmup = s.Duration / 8
	// The hot-data window must cover the users' page re-touch interval
	// (think time x working set / pages ≈ 25 s) or hot items go cold
	// before their first post-transition touch — on the paper's
	// timescale TTL is minutes, far above it. A window longer than one
	// slot is fine: a superseding provisioning decision finalizes the
	// previous transition first.
	cfg.TTL = 2 * s.SlotWidth
	cfg.BootDelay = s.SlotWidth / 16
	cfg.LatencySlots = 96
	cfg.PowerEvery = s.Duration / 96
	return cfg
}

func (s Scale) validate() error {
	if s.CorpusPages < 1 || s.MeanRPS <= 0 || s.Duration <= 0 || s.SlotWidth <= 0 {
		return fmt.Errorf("experiments: invalid scale %+v", s)
	}
	return nil
}
