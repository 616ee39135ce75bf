// Package loadgen is the open-loop load-generation core of the live
// plane's saturation study: arrival times are laid down on a fixed
// timeline *before* the run, independent of response completion, and
// every request's latency is measured from its scheduled (intended)
// start rather than its actual send time.
//
// The distinction is the whole point. A closed-loop generator (the
// paper's RBE users, cmd/proteus-loadgen -mode rbe) waits for each
// response before issuing the next request, so when the system stalls
// the generator stalls with it and the stall never shows up as
// latency — the coordinated-omission artifact. The paper's central
// claim (Figs. 6–7: scale transitions cause no response-time spike) is
// exactly a claim about what happens during stalls, so measuring it
// honestly requires open-loop arrivals: if the cluster freezes for a
// second, every request scheduled inside that second is charged the
// freeze, whether or not a connection was free to carry it.
//
// The package is replay-critical (see DESIGN.md §6): all randomness
// comes from per-worker seeded generators derived from one seed, and
// all time flows through an injected Clock. One seed therefore yields
// one byte-identical schedule, diffable across runs and machines; the
// wall clock enters only at the cmd/proteus-loadgen boundary.
package loadgen

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"proteus/internal/metrics"
)

// OpKind is the operation mix dimension.
type OpKind uint8

const (
	// OpGet fetches one page.
	OpGet OpKind = iota
	// OpSet overwrites one page.
	OpSet
	// OpMultiGet fetches a batch of pages in one exchange.
	OpMultiGet
)

// String names the kind for schedule dumps and CSV rows.
func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "get"
	case OpSet:
		return "set"
	case OpMultiGet:
		return "mget"
	default:
		return fmt.Sprintf("opkind(%d)", uint8(k))
	}
}

// Op is one scheduled request: worker w's seq'th arrival, due at
// Intended on the run's timeline.
type Op struct {
	Worker   int
	Seq      int
	Kind     OpKind
	Keys     []string
	Intended time.Duration
}

// Mix is the operation mix. Weights are relative; they need not sum
// to 1. A zero Mix selects pure GETs.
type Mix struct {
	Get, Set, MultiGet float64
	// MultiGetKeys is the batch size for OpMultiGet (default 8).
	MultiGetKeys int
}

// DefaultMix mirrors a read-heavy memcached tier: 90% GET, 5% SET,
// 5% 8-key MultiGet.
func DefaultMix() Mix { return Mix{Get: 0.90, Set: 0.05, MultiGet: 0.05, MultiGetKeys: 8} }

func (m Mix) normalized() (Mix, error) {
	if m.Get < 0 || m.Set < 0 || m.MultiGet < 0 {
		return m, fmt.Errorf("loadgen: negative mix weight %+v", m)
	}
	total := m.Get + m.Set + m.MultiGet
	if total == 0 {
		m.Get, total = 1, 1
	}
	m.Get /= total
	m.Set /= total
	m.MultiGet /= total
	if m.MultiGetKeys == 0 {
		m.MultiGetKeys = 8
	}
	if m.MultiGetKeys < 1 {
		return m, fmt.Errorf("loadgen: MultiGetKeys must be >= 1, got %d", m.MultiGetKeys)
	}
	return m, nil
}

// Clock is the injected time source. On the live plane it is run-
// relative wall time (cmd/proteus-loadgen); in tests it is a
// ManualClock. Now and WaitUntil may be called concurrently from every
// worker goroutine.
type Clock interface {
	// Now returns the elapsed run time.
	Now() time.Duration
	// WaitUntil blocks until Now() >= t (returning immediately when t
	// has already passed).
	WaitUntil(t time.Duration)
}

// Config configures a Runner.
type Config struct {
	// Workers is the number of concurrent connections/issuers
	// (default 1). The offered rate is split across workers; a worker
	// only delays an arrival when its *own* previous request is still
	// in flight, and that delay is charged to the arrival (see
	// DESIGN.md §14).
	Workers int
	// Duration bounds the schedule: arrivals at or past Duration are
	// not issued.
	Duration time.Duration
	// Arrivals selects the arrival process (required).
	Arrivals ArrivalSpec
	// Mix is the operation mix (zero value = pure GET).
	Mix Mix
	// Keys supplies the key population (required): Key(i) for
	// i in [0, N()).
	Keys KeySpace
	// ZipfAlpha skews key popularity (0 = uniform).
	ZipfAlpha float64
	// Seed derives every per-worker generator.
	Seed int64
	// Interval is the reporting bucket width for per-interval
	// percentiles (default 1s of run time).
	Interval time.Duration
	// Clock is the injected time source (required).
	Clock Clock
	// Do issues one operation and reports whether it succeeded. It is
	// called concurrently from Workers goroutines.
	Do func(op Op) error
}

// KeySpace abstracts the key population (wiki.Corpus satisfies it).
type KeySpace interface {
	Pages() int
	Key(i int) string
}

func (c Config) validate() (Config, error) {
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Workers < 1 {
		return c, fmt.Errorf("loadgen: Workers must be >= 1, got %d", c.Workers)
	}
	if c.Duration <= 0 {
		return c, fmt.Errorf("loadgen: Duration must be positive, got %v", c.Duration)
	}
	if c.Arrivals == nil {
		return c, fmt.Errorf("loadgen: Arrivals is required")
	}
	if c.Keys == nil || c.Keys.Pages() < 1 {
		return c, fmt.Errorf("loadgen: Keys is required and must be non-empty")
	}
	if c.ZipfAlpha < 0 {
		return c, fmt.Errorf("loadgen: ZipfAlpha must be >= 0, got %g", c.ZipfAlpha)
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Clock == nil {
		return c, fmt.Errorf("loadgen: Clock is required")
	}
	var err error
	c.Mix, err = c.Mix.normalized()
	return c, err
}

// workerSeed derives worker w's generator seed. The multiplier
// decorrelates adjacent worker streams (same idiom as
// workload.UserPool).
func workerSeed(seed int64, w int, stream int64) int64 {
	h := uint64(seed) ^ uint64(w+1)*0x9e3779b97f4a7c15 ^ uint64(stream)*0x2545f4914f6cdd1d
	return int64(h)
}

// opGen draws a worker's operation sequence: kind from the mix, keys
// from the shared-CDF Zipf with the worker's own generator.
type opGen struct {
	mix  Mix
	rng  *rand.Rand
	zipf *zipfShared
	keys KeySpace
}

func (g *opGen) next(worker, seq int, at time.Duration) Op {
	op := Op{Worker: worker, Seq: seq, Intended: at}
	u := g.rng.Float64()
	switch {
	case u < g.mix.Get:
		op.Kind = OpGet
		op.Keys = []string{g.keys.Key(g.zipf.next(g.rng))}
	case u < g.mix.Get+g.mix.Set:
		op.Kind = OpSet
		op.Keys = []string{g.keys.Key(g.zipf.next(g.rng))}
	default:
		op.Kind = OpMultiGet
		keys := make([]string, 0, g.mix.MultiGetKeys)
		seen := make(map[int]bool, g.mix.MultiGetKeys)
		for len(keys) < g.mix.MultiGetKeys {
			idx := g.zipf.next(g.rng)
			if seen[idx] {
				idx = g.rng.Intn(g.keys.Pages())
				if seen[idx] {
					continue
				}
			}
			seen[idx] = true
			keys = append(keys, g.keys.Key(idx))
		}
		op.Keys = keys
	}
	return op
}

// zipfShared shares one CDF across workers (it depends only on alpha
// and the population) while each worker draws with its own generator.
type zipfShared struct {
	cdf []float64 // nil = uniform
	n   int
}

func newZipfShared(alpha float64, n int) (*zipfShared, error) {
	if alpha == 0 {
		return &zipfShared{n: n}, nil
	}
	// Reuse workload's CDF construction via a throwaway sampler; only
	// the CDF is kept, so the generator seed is irrelevant.
	z, err := newCDF(alpha, n)
	if err != nil {
		return nil, err
	}
	return &zipfShared{cdf: z, n: n}, nil
}

func (z *zipfShared) next(rng *rand.Rand) int {
	if z.cdf == nil {
		return rng.Intn(z.n)
	}
	u := rng.Float64()
	return searchFloat64s(z.cdf, u)
}

// Result is a completed run's measurements. All latencies are
// intended-start latencies.
type Result struct {
	// Scheduled counts arrivals laid down inside Duration; Issued
	// counts those actually sent (== Scheduled unless the run was
	// interrupted); Errors counts failed operations.
	Scheduled, Issued, Errors uint64
	// Hist aggregates every intended-start latency.
	Hist metrics.Histogram
	// Intervals buckets latencies by *intended* start time, so a
	// stalled request degrades the interval it was scheduled in, not
	// the interval the system got around to serving it.
	Intervals []Interval
	// MaxLag is the largest observed gap between an arrival's intended
	// and actual issue time — how far the generator itself fell behind
	// schedule (0 on a healthy open-loop run).
	MaxLag time.Duration
}

// Interval is one reporting bucket.
type Interval struct {
	Start  time.Duration
	Hist   metrics.Histogram
	Errors uint64
}

// Runner executes an open-loop run.
type Runner struct {
	cfg Config
}

// NewRunner validates cfg.
func NewRunner(cfg Config) (*Runner, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	return &Runner{cfg: cfg}, nil
}

// workerState is one issuer's private measurement state, merged after
// the run so recording is lock-free and deterministic.
type workerState struct {
	hist      metrics.Histogram
	intervals []Interval
	scheduled uint64
	issued    uint64
	errors    uint64
	maxLag    time.Duration
}

func (w *workerState) record(cfg *Config, op Op, lat time.Duration, err error) {
	w.hist.Observe(lat)
	idx := int(op.Intended / cfg.Interval)
	for len(w.intervals) <= idx {
		w.intervals = append(w.intervals, Interval{
			Start: time.Duration(len(w.intervals)) * cfg.Interval,
		})
	}
	w.intervals[idx].Hist.Observe(lat)
	if err != nil {
		w.errors++
		w.intervals[idx].Errors++
	}
}

// Run issues the full schedule and returns the merged measurements.
// Each worker walks its own arrival sequence: it waits until an
// arrival's intended time, issues the operation, and records
// completion − intended as the latency. When the previous operation
// overran the next intended time, the next operation is issued
// immediately and still measured from its intended time — the overrun
// is charged to it, never omitted.
func (r *Runner) Run() (*Result, error) {
	cfg := r.cfg
	states := make([]workerState, cfg.Workers)
	// One CDF shared by every worker: it depends only on the skew and
	// the population, and draws go through per-worker generators.
	zipf, err := newZipfShared(cfg.ZipfAlpha, cfg.Keys.Pages())
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		sched, err := cfg.Arrivals.Worker(cfg.Seed, w, cfg.Workers)
		if err != nil {
			return nil, err
		}
		gen := &opGen{
			mix:  cfg.Mix,
			rng:  rand.New(rand.NewSource(workerSeed(cfg.Seed, w, 2))),
			zipf: zipf,
			keys: cfg.Keys,
		}
		wg.Add(1)
		go func(w int, sched Schedule, gen *opGen) {
			defer wg.Done()
			st := &states[w]
			for seq := 0; ; seq++ {
				at, ok := sched.Next()
				if !ok || at >= cfg.Duration {
					return
				}
				op := gen.next(w, seq, at)
				st.scheduled++
				// The injected Clock is this package's sanctioned time
				// boundary: the schedule itself is pure (seed, spec);
				// only pacing and latency measurement touch the clock,
				// and tests inject ManualClock for exact replay.
				cfg.Clock.WaitUntil(op.Intended)
				if lag := cfg.Clock.Now() - op.Intended; lag > st.maxLag {
					st.maxLag = lag
				}
				err := cfg.Do(op)
				lat := cfg.Clock.Now() - op.Intended
				st.issued++
				st.record(&cfg, op, lat, err)
			}
		}(w, sched, gen)
	}
	wg.Wait()
	res := &Result{}
	for i := range states {
		st := &states[i]
		res.Scheduled += st.scheduled
		res.Issued += st.issued
		res.Errors += st.errors
		if st.maxLag > res.MaxLag {
			res.MaxLag = st.maxLag
		}
		res.Hist.Merge(&st.hist)
		for len(res.Intervals) < len(st.intervals) {
			res.Intervals = append(res.Intervals, Interval{
				Start: time.Duration(len(res.Intervals)) * cfg.Interval,
			})
		}
		for j := range st.intervals {
			res.Intervals[j].Hist.Merge(&st.intervals[j].Hist)
			res.Intervals[j].Errors += st.intervals[j].Errors
		}
	}
	return res, nil
}

// ScheduleOps materialises the full schedule without issuing anything:
// every worker's operation sequence inside Duration, in worker order.
// Two calls with one Config are byte-identical when printed — the
// determinism artifact `make loadgen-smoke` diffs.
func ScheduleOps(cfg Config) ([]Op, error) {
	// A nil Clock/Do is fine for schedule-only materialisation.
	if cfg.Clock == nil {
		cfg.Clock = nopClock{}
	}
	if cfg.Do == nil {
		cfg.Do = func(Op) error { return nil }
	}
	cfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	zipf, err := newZipfShared(cfg.ZipfAlpha, cfg.Keys.Pages())
	if err != nil {
		return nil, err
	}
	var ops []Op
	for w := 0; w < cfg.Workers; w++ {
		sched, err := cfg.Arrivals.Worker(cfg.Seed, w, cfg.Workers)
		if err != nil {
			return nil, err
		}
		gen := &opGen{
			mix:  cfg.Mix,
			rng:  rand.New(rand.NewSource(workerSeed(cfg.Seed, w, 2))),
			zipf: zipf,
			keys: cfg.Keys,
		}
		for seq := 0; ; seq++ {
			at, ok := sched.Next()
			if !ok || at >= cfg.Duration {
				break
			}
			ops = append(ops, gen.next(w, seq, at))
		}
	}
	return ops, nil
}

type nopClock struct{}

func (nopClock) Now() time.Duration      { return 0 }
func (nopClock) WaitUntil(time.Duration) {}
