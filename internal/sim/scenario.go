package sim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"proteus/internal/bloom"
	"proteus/internal/core"
	"proteus/internal/database"
	"proteus/internal/faultinject"
	"proteus/internal/metrics"
	"proteus/internal/power"
	"proteus/internal/provision"
	"proteus/internal/telemetry"
	"proteus/internal/wiki"
	"proteus/internal/workload"
)

// Scenario selects the load-distribution + provisioning behaviour
// combination of the paper's Table II.
type Scenario int

const (
	// ScenarioStatic keeps every server on and routes by hash-modulo.
	ScenarioStatic Scenario = iota + 1
	// ScenarioNaive provisions dynamically and routes by hash-modulo.
	ScenarioNaive
	// ScenarioConsistent provisions dynamically and routes with random
	// virtual-node consistent hashing (n^2/2 nodes, as in Fig. 9).
	ScenarioConsistent
	// ScenarioProteus provisions dynamically with the paper's placement
	// algorithm and smooth digest-driven transitions.
	ScenarioProteus
)

func (s Scenario) String() string {
	switch s {
	case ScenarioStatic:
		return "Static"
	case ScenarioNaive:
		return "Naive"
	case ScenarioConsistent:
		return "Consistent"
	case ScenarioProteus:
		return "Proteus"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// Scenarios lists all four in the paper's presentation order.
func Scenarios() []Scenario {
	return []Scenario{ScenarioStatic, ScenarioNaive, ScenarioConsistent, ScenarioProteus}
}

// Config parametrises one simulation run. NewConfig is the only source
// of defaults: Run rejects a config missing a required field instead of
// filling it in.
type Config struct {
	Scenario Scenario

	// Cluster shape (paper: 10 cache servers, 7 DB shards; the 10 web
	// servers and 10 RBE hosts are fixed in runner.go).
	CacheServers int
	DBShards     int

	// DBLatency models per-query service time.
	DBLatency database.LatencyModel

	// Corpus is the page population (required).
	Corpus *wiki.Corpus
	// CachePagesPerServer sizes each cache in pages.
	CachePagesPerServer int
	// TTL is the hot-data window and the smooth-transition deadline.
	TTL time.Duration
	// BootDelay is the power-on time of a cache server.
	BootDelay time.Duration

	// SlotWidth is the provisioning slot (paper: 30 min).
	SlotWidth time.Duration
	// Duration is the measured experiment length.
	Duration time.Duration
	// Warmup runs traffic before measurement starts (caches fill).
	Warmup time.Duration
	// LatencySlots sets Fig. 9 resolution (paper: 480).
	LatencySlots int

	// Rate is the offered-load curve the closed-loop RBE browsers follow.
	Rate workload.Diurnal
	// Trace, when non-empty, replaces the closed-loop RBE population
	// with open-loop replay of these time-ordered events (the paper's
	// trace-driven experiments). Timestamps are absolute over
	// Warmup+Duration: events before Warmup warm the caches without
	// being measured. Rate is still used to derive the provisioning
	// plan unless Plan is given.
	Trace []workload.Event
	// Plan is the per-slot active server count, shared by all dynamic
	// scenarios (nil derives it with PlanProvisioning).
	Plan []int
	// PerServerCapacity (req/s) is used when deriving Plan.
	PerServerCapacity float64
	// Policy, when non-nil, replaces the static Plan with a closed
	// loop: at every slot boundary the next fleet size is decided from
	// the ending slot's measured high-percentile delay and request
	// rate. The realised sizes are reported in Result.Plan. Scale-downs
	// decided while a previous window is still draining are deferred to
	// the next slot (Stats.ScaleDownsDeferred counts them).
	Policy provision.Policy
	// DisableDigest ablates Section IV: transitions still re-route
	// with the Proteus placement, but the web tier has no digests, so
	// every re-mapped key goes straight to the database. Used by the
	// ablation study to separate the placement's contribution from
	// the digest's. Proteus scenario only.
	DisableDigest bool
	// Replicas enables Section III-E replication for the Proteus
	// scenario: r rings share the placement, reads fall through the
	// rings, writes store on every distinct owner (0 or 1 disables).
	// Proteus scenario only.
	Replicas int
	// Backend selects the placement geometry for the Proteus scenario
	// (empty = Algorithm 1); see core.BackendKind. Proteus scenario
	// only: the baselines route by their Table II scheme.
	Backend core.BackendKind
	// CrashAt, when positive, powers off CrashServer at that offset
	// into the measured run without any transition — an unplanned
	// failure. With replication, surviving copies absorb it.
	CrashAt     time.Duration
	CrashServer int
	// Faults, when non-nil, applies the same rule-based fault schedule
	// the live TCP plane uses: per-operation OpGet/OpSet decisions are
	// consulted in virtual time (errors degrade like a crashed node,
	// delays stretch service time), and OpTransition rules fire at the
	// Proteus scenario's ownership flip so crash/partition ordinals line
	// up across both execution planes (a baseline's flip fires none).
	Faults *faultinject.Injector

	// Telemetry enables the deterministic tracer and transition-event
	// log: Result.Tracer and Result.Events are populated, driven by the
	// engine's virtual clock and seeded from Seed, so two runs with the
	// same config produce byte-identical trace and event JSON.
	Telemetry bool

	// DigestParams sizes the per-server counting Bloom filter.
	DigestParams bloom.Params

	// Service model.
	WebOverhead  time.Duration
	CacheRTT     time.Duration
	CacheService time.Duration

	// PowerEvery is the PDU sampling period.
	PowerEvery time.Duration

	Seed int64
}

// NewConfig returns a configuration mirroring the paper's testbed at a
// laptop-friendly scale: a compressed "day" whose diurnal period equals
// Duration, a 200k-page corpus slice, and a mean offered load of
// meanRPS.
func NewConfig(scenario Scenario, corpus *wiki.Corpus, duration time.Duration, meanRPS float64) Config {
	// Size the database tier relative to the offered load the way a
	// production deployment is sized: ample headroom for the normal
	// cache-miss stream (~5-20% of traffic) but far below the full
	// request rate. A transition that floods the database with
	// re-mapped keys then saturates it — the paper's spike mechanism.
	// With one connection per shard and mild jitter (mean factor 0.75),
	// capacity = shards/(0.75*base) ≈ 0.5*meanRPS.
	dbBase := time.Duration(18.7 * float64(time.Second) / meanRPS)
	return Config{
		Scenario:     scenario,
		CacheServers: 10,
		DBShards:     7,
		DBLatency: database.LatencyModel{
			Base:       dbBase,
			PerKB:      dbBase / 200,
			JitterMean: 0.5,
		},
		Corpus:              corpus,
		CachePagesPerServer: corpus.Pages() / 16,
		TTL:                 45 * time.Second,
		BootDelay:           10 * time.Second,
		SlotWidth:           duration / 48, // the paper's 48 30-min slots
		Duration:            duration,
		Warmup:              duration / 24,
		LatencySlots:        480,
		Rate:                workload.DefaultDiurnal(meanRPS, duration),
		PerServerCapacity:   meanRPS / 7.5,
		WebOverhead:         800 * time.Microsecond,
		CacheRTT:            300 * time.Microsecond,
		CacheService:        100 * time.Microsecond,
		PowerEvery:          power.SampleInterval,
		Seed:                1,
	}
}

// validate rejects a config missing a required field and derives
// DigestParams and Plan when they are unset.
func (c *Config) validate() error {
	if c.Corpus == nil {
		return errors.New("sim: Corpus is required")
	}
	if c.Scenario < ScenarioStatic || c.Scenario > ScenarioProteus {
		return fmt.Errorf("sim: unknown scenario %d", int(c.Scenario))
	}
	if c.Scenario != ScenarioProteus && (c.Replicas > 1 || c.DisableDigest || c.Backend != "") {
		// The baselines route by their own Table II scheme with one copy
		// and no transitions; silently running them unchanged would
		// mislabel the result.
		return fmt.Errorf("sim: Replicas, DisableDigest and Backend apply to the Proteus scenario only, not %v", c.Scenario)
	}
	if c.CacheServers < 1 || c.Duration <= 0 || c.SlotWidth <= 0 {
		return fmt.Errorf("sim: invalid shape (servers=%d duration=%v slot=%v)",
			c.CacheServers, c.Duration, c.SlotWidth)
	}
	if c.Rate.Mean <= 0 {
		return errors.New("sim: Rate.Mean must be positive")
	}
	if c.LatencySlots < 1 || c.DBShards < 1 || c.DBLatency == (database.LatencyModel{}) || c.PowerEvery <= 0 {
		return errors.New("sim: LatencySlots, DBShards, DBLatency and PowerEvery must be set; start from NewConfig")
	}
	if c.DigestParams == (bloom.Params{}) {
		// Size for the per-server page count with ~1e-4 rates (Sec IV-B).
		keys := c.CachePagesPerServer
		if keys < 1024 {
			keys = 1024
		}
		cfg, err := bloom.Optimize(keys, 4, 1e-4, 1e-4)
		if err != nil {
			return fmt.Errorf("sim: digest sizing: %w", err)
		}
		c.DigestParams = cfg.Params(bloom.Saturate)
	}
	if c.Plan == nil {
		slots := int((c.Duration + c.SlotWidth - 1) / c.SlotWidth)
		if c.Scenario == ScenarioStatic {
			c.Plan = staticPlan(slots, c.CacheServers)
		} else {
			c.Plan = PlanProvisioning(c.Rate, c.Duration, c.SlotWidth, c.PerServerCapacity, 1, c.CacheServers)
		}
	}
	return nil
}

func staticPlan(slots, n int) []int {
	plan := make([]int, slots)
	for i := range plan {
		plan[i] = n
	}
	return plan
}

// PlanProvisioning derives the per-slot active server count from the
// offered-load curve, standing in for the paper's feedback loop (whose
// details the paper omits): each slot gets enough servers for its peak
// instantaneous rate at the given per-server capacity. The same plan is
// applied to every dynamic scenario, exactly as the paper applies one
// provisioning result to all four.
func PlanProvisioning(rate workload.Diurnal, duration, slotWidth time.Duration, perServerRPS float64, minServers, maxServers int) []int {
	slots := int((duration + slotWidth - 1) / slotWidth)
	plan := make([]int, slots)
	for s := range plan {
		peak := 0.0
		start := time.Duration(s) * slotWidth
		for i := 0; i <= 10; i++ {
			t := start + time.Duration(i)*slotWidth/10
			if r := rate.Rate(t); r > peak {
				peak = r
			}
		}
		n := int(math.Ceil(peak / perServerRPS))
		if n < minServers {
			n = minServers
		}
		if n > maxServers {
			n = maxServers
		}
		plan[s] = n
	}
	return plan
}

// Stats aggregates run-level counters.
type Stats struct {
	Requests         uint64
	CacheHits        uint64
	ReplicaHits      uint64 // of CacheHits, served by ring > 0
	CacheMisses      uint64
	DBQueries        uint64
	MigratedOnDemand uint64 // items pulled from the old owner (Alg. 2 line 7)
	DigestFalsePos   uint64 // digest said hot, old server missed
	DigestMisses     uint64 // cold or absent per digest -> straight to DB
	Transitions      int
	// ScaleDownsDeferred counts policy scale-downs held back because a
	// previous window was still draining (TTL-aware actuation gate).
	ScaleDownsDeferred uint64
	// MidDrainScaleDowns counts shrink transitions that began while a
	// drain was in progress. The gate makes this impossible for policy
	// runs; the harness asserts it stays zero.
	MidDrainScaleDowns uint64
}

// HitRatio returns cache hits over lookups at the new owner.
func (s Stats) HitRatio() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// RequestSource classifies where a simulated request was served from.
type RequestSource int

const (
	// SourceHit is a cache hit on the (new) owner.
	SourceHit RequestSource = iota
	// SourceMigrated is an Algorithm 2 on-demand migration.
	SourceMigrated
	// SourceDB is a database fetch.
	SourceDB
	numSources
)

func (s RequestSource) String() string {
	switch s {
	case SourceHit:
		return "cache-hit"
	case SourceMigrated:
		return "migrated"
	case SourceDB:
		return "database"
	default:
		return fmt.Sprintf("RequestSource(%d)", int(s))
	}
}

// Result carries everything the figures need from one run.
type Result struct {
	Scenario Scenario
	Config   Config
	Plan     []int
	Latency  *metrics.LatencySeries
	Load     *metrics.LoadSeries
	Meter    *power.Meter
	Requests *workload.Counter
	Stats    Stats
	// BySource breaks measured response times down by where the
	// request was served from (spike composition analysis).
	BySource [3]*metrics.Histogram
	// ActivePerSlot records the routing-level active server count in
	// effect at each provisioning slot boundary.
	ActivePerSlot []int
	// Tracer and Events hold the run's deterministic spans and
	// transition timeline; nil unless Config.Telemetry was set.
	Tracer *telemetry.Tracer
	Events *telemetry.EventLog
}

// SourceLatency returns the measured latency histogram for one source.
func (r *Result) SourceLatency(s RequestSource) *metrics.Histogram {
	return r.BySource[s]
}
