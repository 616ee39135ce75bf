package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"

	"proteus/internal/bloom"
	"proteus/internal/cache"
	"proteus/internal/cacheclient"
	"proteus/internal/cacheserver"
	"proteus/internal/core"
	"proteus/internal/hashring"
	"proteus/internal/hotkey"
	"proteus/internal/lint"
	"proteus/internal/livestack"
	"proteus/internal/loadgen"
	"proteus/internal/metrics"
	"proteus/internal/provision"
	"proteus/internal/sim"
	"proteus/internal/wiki"
	"proteus/internal/workload"
)

// BaselineResult is one row of BENCH_baseline.json: the machine-readable
// counterpart of `go test -bench`, for diffing hot-path cost across PRs.
type BaselineResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type baselineFile struct {
	Generated string           `json:"generated"`
	Go        string           `json:"go"`
	Results   []BaselineResult `json:"results"`
}

// nsRegressionLimit is the compare-mode failure threshold: a benchmark
// more than 25% slower than its committed baseline fails the build.
// Wide enough to absorb machine noise on shared CI runners, tight
// enough to catch a hot path growing a lock or a syscall.
const nsRegressionLimit = 1.25

// nsAbsoluteSlack is the noise floor under the ratio test: a
// regression only fails when it is also more than this many ns/op
// absolute. The O(1) construction benchmarks sit near 20 ns, where a
// few ns of allocator or timer jitter crosses 25% on its own; against
// any benchmark slow enough for the ratio to be meaningful this slack
// is negligible.
const nsAbsoluteSlack = 10.0

// lintNsLimit is the looser wall-clock budget for the whole-repo
// proteuslint run: a single multi-second measurement (type-checking
// every package plus the call-graph fixpoint) is noisier than a
// microbenchmark, but a 2x blowup means an analyzer went quadratic.
const lintNsLimit = 2.0

// lintAbsoluteBudget caps the selfcheck outright: CI runs it on every
// push, so it must stay interactive regardless of what the committed
// baseline says.
const lintAbsoluteBudget = 60 * time.Second

// kneeNsLimit is the loose budget for the open-loop saturation knee
// (recorded as ns per request at the knee, so higher = worse). It is a
// full-stack macro measurement — two socket hops per request, GC, and
// scheduler noise on a shared runner — so only a halving of the knee
// rate fails the build.
const kneeNsLimit = 2.0

// pageCliffLimit bounds get_loopback_6k / get_loopback_256, both
// measured in the same run, so the rule holds on any machine: the
// largest wiki page must cost a 256 B value plus its copy, not a second
// write on the server and a second read on the client. With bufio's
// 4 KiB default on the hop the ratio was 1.63; with buffers that hold a
// page (memproto.WireBufSize) it is 1.25 (EXPERIMENTS.md A9).
const pageCliffLimit = 1.45

// baselineKeys builds a deterministic key set shared by the benchmarks.
func baselineKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("page:%d", i)
	}
	return keys
}

type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// hotPathBenches builds the benchmark set measured by both
// -bench-baseline and -bench-compare. The cleanup func releases the
// loopback server backing the network benchmarks.
func hotPathBenches() ([]namedBench, func(), error) {
	const nkeys = 4096
	keys := baselineKeys(nkeys)
	value := make([]byte, 256)

	warm := cache.New(cache.Config{MaxBytes: 64 << 20, Clock: time.Now})
	for _, k := range keys {
		warm.Set(k, value, 0)
	}
	// Single-shard control: the same cache behind one mutex, the
	// configuration the sharding work (DESIGN.md §8) is measured against.
	warm1 := cache.New(cache.Config{MaxBytes: 64 << 20, Clock: time.Now, Shards: 1})
	for _, k := range keys {
		warm1.Set(k, value, 0)
	}
	digest, err := bloom.NewCounting(bloom.Params{
		Counters: 512 * 1024 * 8 / 4, CounterBits: 4, Hashes: 4, Mode: bloom.Saturate,
	})
	if err != nil {
		return nil, nil, err
	}
	for _, k := range keys {
		digest.Insert(k)
	}
	zipf, err := workload.NewZipf(rand.New(rand.NewSource(1)), 0.8, nkeys)
	if err != nil {
		return nil, nil, err
	}
	// Hot-key routing fixtures: the replicated resolver at depth 2, a
	// warm top-k sketch, and a Zipf(0.99) draw — the skew replication
	// exists for.
	replicated, err := core.NewReplicated(48, 2)
	if err != nil {
		return nil, nil, err
	}
	sketch := hotkey.NewSketch(64)
	zipfHot, err := workload.NewZipf(rand.New(rand.NewSource(2)), 0.99, nkeys)
	if err != nil {
		return nil, nil, err
	}
	hotDraws := make([]int, 1<<16)
	for i := range hotDraws {
		hotDraws[i] = zipfHot.Next()
	}
	hotSet := make(map[string]struct{}, 8)
	for i := 0; i < 8; i++ {
		hotSet[keys[i]] = struct{}{}
	}

	// Loopback server + pipelined client for the end-to-end benchmarks.
	srv, err := cacheserver.New(cacheserver.Config{
		Digest: bloom.Params{Counters: 1 << 16, CounterBits: 4, Hashes: 4, Mode: bloom.Saturate},
	})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	go srv.Serve(ln)
	for _, k := range keys[:64] {
		srv.Cache().Set(k, value, 0)
	}
	client := cacheclient.New(ln.Addr().String())
	cleanup := func() {
		client.Close()
		srv.Close()
	}
	multiKeys := append([]string(nil), keys[:16]...)
	// Sized values for the loopback rows: 256 B (what multiget_16 and
	// the package benchmarks use), the paper's 4 KiB page and chunk
	// piece, and the largest wiki page — the last two are over bufio's
	// default buffer, which is where the hop used to pay twice.
	sizedKeys := func(size int) []string {
		ks := make([]string, 16)
		for i := range ks {
			ks[i] = fmt.Sprintf("sized:%d:%d", size, i)
			srv.Cache().Set(ks[i], make([]byte, size), 0)
		}
		return ks
	}
	getLoopback := func(size int) func(b *testing.B) {
		ks := sizedKeys(size)
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok, err := client.Get(ks[i%len(ks)]); err != nil || !ok {
					b.Fatalf("Get = %v, %v", ok, err)
				}
			}
		}
	}
	keys4k := sizedKeys(4096)
	page4k := make([]byte, 4096)

	benches := []namedBench{
		{"cache_get_hit", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				warm.Get(keys[i%nkeys])
			}
		}},
		{"cache_get_hit_parallel", func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					warm.Get(keys[i%nkeys])
					i++
				}
			})
		}},
		{"cache_get_hit_parallel_1shard", func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					warm1.Get(keys[i%nkeys])
					i++
				}
			})
		}},
		{"cache_set", func(b *testing.B) {
			b.ReportAllocs()
			c := cache.New(cache.Config{MaxBytes: 64 << 20, Clock: time.Now})
			for i := 0; i < b.N; i++ {
				c.Set(keys[i%nkeys], value, 0)
			}
		}},
		{"digest_insert", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				digest.Insert(keys[i%nkeys])
			}
		}},
		{"digest_contains", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				digest.Contains(keys[i%nkeys])
			}
		}},
		{"zipf_next", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				zipf.Next()
			}
		}},
		{"hotkey_observe", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sketch.Observe(keys[hotDraws[i%len(hotDraws)]])
			}
		}},
		{"hotkey_route", func(b *testing.B) {
			// Full hot-path routing decision for a promoted key: resolve
			// the distinct owners at depth 2 and pick the less-loaded one.
			b.ReportAllocs()
			loads := [2]float64{0.3, 0.7}
			for i := 0; i < b.N; i++ {
				owners := replicated.DistinctOwnersN(keys[hotDraws[i%len(hotDraws)]], 48, 2)
				pick := owners[0]
				if len(owners) > 1 && loads[1] < loads[0] {
					pick = owners[1]
				}
				_ = pick
			}
		}},
		{"zipf99_get_primary", func(b *testing.B) {
			// Zipf(0.99) read routing without replication: every key
			// resolves to its single ring-0 owner.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := keys[hotDraws[i%len(hotDraws)]]
				warm.Get(k)
				_ = replicated.OwnerOnRing(k, 0, 48)
			}
		}},
		{"zipf99_get_replicated", func(b *testing.B) {
			// The same Zipf(0.99) stream with the hottest 8 keys promoted:
			// hot keys pay the depth-2 resolution, cold keys the primary
			// lookup — the mixed cost the web tier actually sees.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := keys[hotDraws[i%len(hotDraws)]]
				warm.Get(k)
				if _, hot := hotSet[k]; hot {
					owners := replicated.DistinctOwnersN(k, 48, 2)
					_ = owners[len(owners)-1]
				} else {
					_ = replicated.OwnerOnRing(k, 0, 48)
				}
			}
		}},
		{"policy_decide", func(b *testing.B) {
			// One full delay-feedback slot decision: PI update, deadband,
			// dwell/drain/energy gates. Runs once per provisioning slot
			// in production but inside tight sweep loops in the harness.
			b.ReportAllocs()
			policy := provision.NewDelayFeedback(48, 100)
			states := [4]provision.State{
				{Delay: 120 * time.Millisecond, Rate: 2400, Active: 30},
				{Delay: 380 * time.Millisecond, Rate: 3600, Active: 30},
				{Delay: 460 * time.Millisecond, Rate: 4200, Active: 36},
				{Delay: 600 * time.Millisecond, Rate: 4600, Active: 40},
			}
			for i := 0; i < b.N; i++ {
				s := states[i%len(states)]
				s.Slot = i
				s.SlotWidth = 30 * time.Second
				policy.Decide(s)
			}
		}},
		{"multiget_16", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := client.MultiGet(multiKeys...); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"get_loopback_256", getLoopback(256)},
		{"get_loopback_4k", getLoopback(4096)},
		{"get_loopback_6k", getLoopback(6143)},
		{"set_loopback_4k", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := client.Set(keys4k[i%len(keys4k)], page4k, 0); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"multiget8_4k", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if m, err := client.MultiGet(keys4k[:8]...); err != nil || len(m) != 8 {
					b.Fatalf("MultiGet = %d values, %v", len(m), err)
				}
			}
		}},
	}
	pb, err := placementBenches()
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	sb, err := simBenches()
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	return append(append(benches, pb...), sb...), cleanup, nil
}

// simBenches are the DES plane's rows: the scheduler alone, the
// histogram every simulated request is recorded in twice, and one whole
// run.
func simBenches() ([]namedBench, error) {
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 1024)
	latencies := make([]time.Duration, 4096)
	for i := range delays {
		delays[i] = time.Duration(1 + rng.Int63n(int64(time.Second)))
	}
	for i := range latencies {
		// 0.2-100 ms, log-uniform: a cache hit up to a queued DB fetch.
		latencies[i] = time.Duration(float64(200*time.Microsecond) * math.Pow(500, rng.Float64()))
	}
	// The configuration of sim's BenchmarkSimProteusCompressedDay.
	corpus, err := wiki.New(50000, 256)
	if err != nil {
		return nil, err
	}
	day := sim.NewConfig(sim.ScenarioProteus, corpus, 8*time.Minute, 600)
	day.CachePagesPerServer = 4000
	day.SlotWidth = 30 * time.Second
	day.Warmup = 60 * time.Second
	day.TTL = 8 * time.Second
	day.BootDelay = 2 * time.Second
	day.LatencySlots = 96
	day.PowerEvery = 5 * time.Second

	return []namedBench{
		{"sim_engine_event", func(b *testing.B) {
			// One At and one pop per op on a heap held ~1000 deep, the
			// depth the closed user loop keeps it at: every event that
			// fires schedules itself again until b.N have.
			b.ReportAllocs()
			eng := sim.NewEngine()
			left := b.N
			var tick func()
			tick = func() {
				if left > 0 {
					left--
					eng.After(delays[left%len(delays)], tick)
				}
			}
			for i := 0; i < 1000; i++ {
				eng.At(delays[i], tick)
			}
			b.ResetTimer()
			eng.Run(math.MaxInt64)
		}},
		{"histogram_observe", func(b *testing.B) {
			b.ReportAllocs()
			var h metrics.Histogram
			for i := 0; i < b.N; i++ {
				h.Observe(latencies[i%len(latencies)])
			}
		}},
		{"sim_proteus_compressed_day", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(day); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}, nil
}

// placementBenchSizes are the fleet sizes the routing benchmarks sweep.
// 16 is the paper-scale cluster, 128 a realistic pool, 1024 the scale
// where Algorithm 1's precomputed table stops being free: quadratic
// construction and a log-sized range search, versus the O(1) backends'
// constant construction and flat route cost.
var placementBenchSizes = [3]int{16, 128, 1024}

// placementBenches measures route and construction cost for the LogN
// consistent-hash ring and for every placement backend at each fleet
// size. Backends for the route benchmarks are constructed once up
// front, so proteus_n1024's ~40s build is paid once here and once in
// its construct benchmark (which testing.Benchmark stops after a
// single iteration).
func placementBenches() ([]namedBench, error) {
	const nkeys = 4096
	keys := baselineKeys(nkeys)
	kinds := [3]core.BackendKind{core.BackendProteus, core.BackendPCH, core.BackendJump}

	var benches []namedBench
	for _, size := range placementBenchSizes {
		n := size
		ring, err := hashring.NewConsistentLogN(n)
		if err != nil {
			return nil, err
		}
		benches = append(benches, namedBench{fmt.Sprintf("hashring_route_n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ring.Route(keys[i%nkeys], n)
			}
		}})
	}
	for _, k := range kinds {
		for _, size := range placementBenchSizes {
			kind, n := k, size
			backend, err := core.NewBackend(kind, n)
			if err != nil {
				return nil, err
			}
			benches = append(benches,
				namedBench{fmt.Sprintf("placement_route_%s_n%d", kind, n), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						backend.Lookup(keys[i%nkeys], n)
					}
				}},
				namedBench{fmt.Sprintf("placement_construct_%s_n%d", kind, n), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := core.NewBackend(kind, n); err != nil {
							b.Fatal(err)
						}
					}
				}})
		}
	}
	return benches, nil
}

// lintSelfcheck measures one full repo-wide proteuslint run — the same
// work CI's lint step and the lint package's selfcheck test do. One
// iteration: the run takes seconds, and its budget is a wall-clock
// ceiling, not a per-op microbenchmark. Allocation volume is the real
// Mallocs delta across the run, so an analyzer that starts copying the
// AST per function shows up even when its wall clock hides in noise.
func lintSelfcheck() (BaselineResult, error) {
	wd, err := os.Getwd()
	if err != nil {
		return BaselineResult{}, err
	}
	root, err := lint.FindModuleRoot(wd)
	if err != nil {
		return BaselineResult{}, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := lint.RunRepo(root, []string{"./..."}, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		return BaselineResult{}, fmt.Errorf("lint selfcheck: %w", err)
	}
	return BaselineResult{
		Name:        "lint_selfcheck",
		Iterations:  1,
		NsPerOp:     float64(res.Duration.Nanoseconds()),
		AllocsPerOp: int64(after.Mallocs - before.Mallocs),
		BytesPerOp:  int64(after.TotalAlloc - before.TotalAlloc),
	}, nil
}

// kneeWallClock anchors the knee sweep's run timeline to the wall
// clock: this is the measurement harness, outside the determinism
// contract, driving a real loopback stack.
type kneeWallClock struct{ start time.Time }

func (c *kneeWallClock) Now() time.Duration { return time.Since(c.start) }
func (c *kneeWallClock) WaitUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// loadgenKnee measures the open-loop saturation knee of a small
// loopback live plane (3 cache servers behind the web tier, read-only
// Zipf(0.99) traffic, corpus sized to fit in cache) and records it as
// a pseudo-benchmark: NsPerOp is 1e9 / kneeRPS — nanoseconds per
// request at the highest offered rate whose p99 stays under the bound —
// so compare mode's higher-is-worse ratio test catches a knee collapse
// the same way it catches a microbenchmark regression. A compact
// version of `proteus-loadgen -mode open -sweep`, kept short enough
// for CI.
func loadgenKnee() (BaselineResult, error) {
	const (
		kneeP99     = 20 * time.Millisecond
		sweepWindow = 1200 * time.Millisecond
		minRate     = 250.0
		maxRate     = 2000.0
		stepRate    = 250.0
	)
	st, err := livestack.Start(livestack.Config{Nodes: 3, CorpusPages: 2000})
	if err != nil {
		return BaselineResult{}, fmt.Errorf("livestack: %w", err)
	}
	defer st.Close()
	// Fill the caches deterministically: read-only traffic on a warm
	// corpus never touches the modelled DB, so the sweep measures the
	// cache/web stack, not miss latency.
	if err := st.Prewarm(8); err != nil {
		return BaselineResult{}, err
	}
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConns: 32, MaxIdleConnsPerHost: 32},
		Timeout:   10 * time.Second,
	}
	do := func(op loadgen.Op) error {
		resp, err := client.Get(st.URL + "/page/" + op.Keys[0])
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %s", op.Keys[0], resp.Status)
		}
		return nil
	}
	run := func(rate float64, dur time.Duration) (*loadgen.Result, error) {
		r, err := loadgen.NewRunner(loadgen.Config{
			Workers:   8,
			Duration:  dur,
			Arrivals:  loadgen.Poisson{Rate: rate},
			Mix:       loadgen.Mix{Get: 1},
			Keys:      st.Corpus,
			ZipfAlpha: 0.99,
			Seed:      1,
			Interval:  dur,
			Clock:     &kneeWallClock{start: time.Now()},
			Do:        do,
		})
		if err != nil {
			return nil, err
		}
		return r.Run()
	}
	var points []loadgen.SweepPoint
	var issued uint64
	for rate := minRate; rate <= maxRate+1e-9; rate += stepRate {
		res, err := run(rate, sweepWindow)
		if err != nil {
			return BaselineResult{}, fmt.Errorf("knee sweep at %g/s: %w", rate, err)
		}
		points = append(points, loadgen.SweepPointFromResult(rate, sweepWindow, res))
		issued += res.Issued
	}
	knee := loadgen.FindKnee(points, kneeP99, 0.9)
	if knee < 0 {
		return BaselineResult{}, fmt.Errorf(
			"loadgen knee: first sweep point (%g/s) already over %v p99", minRate, kneeP99)
	}
	return BaselineResult{
		Name:       "loadgen_knee",
		Iterations: int(issued),
		NsPerOp:    1e9 / points[knee].Offered,
	}, nil
}

// runBenches measures every hot-path benchmark plus the lint
// selfcheck wall clock and the open-loop saturation knee.
func runBenches() ([]BaselineResult, error) {
	benches, cleanup, err := hotPathBenches()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	results := make([]BaselineResult, 0, len(benches)+1)
	for _, bench := range benches {
		r := testing.Benchmark(bench.fn)
		results = append(results, BaselineResult{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
		fmt.Fprintf(os.Stderr, "%-30s %12d iters %12.1f ns/op %6d B/op %4d allocs/op\n",
			bench.name, r.N, float64(r.T.Nanoseconds())/float64(r.N),
			r.AllocedBytesPerOp(), r.AllocsPerOp())
	}
	ls, err := lintSelfcheck()
	if err != nil {
		return nil, err
	}
	results = append(results, ls)
	fmt.Fprintf(os.Stderr, "%-30s %12d iters %12.1f ns/op %6d B/op %4d allocs/op\n",
		ls.Name, ls.Iterations, ls.NsPerOp, ls.BytesPerOp, ls.AllocsPerOp)
	lk, err := loadgenKnee()
	if err != nil {
		return nil, err
	}
	results = append(results, lk)
	fmt.Fprintf(os.Stderr, "%-30s %12d iters %12.1f ns/op (knee %.0f req/s)\n",
		lk.Name, lk.Iterations, lk.NsPerOp, 1e9/lk.NsPerOp)
	return results, nil
}

// writeBaseline measures the core hot paths — cache get/set (serial and
// parallel), digest insert/probe, request routing, workload draw, and
// the pipelined multi-get over loopback TCP — and writes the results as
// JSON.
func writeBaseline(path string) error {
	results, err := runBenches()
	if err != nil {
		return err
	}
	out := baselineFile{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Go:        runtime.Version(),
		Results:   results,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareBaseline re-measures the hot paths and diffs them against a
// committed baseline, failing on a >25% ns/op regression, on any new
// allocations along paths the baseline records as allocation-free (the
// zero-alloc contract of the GET-hit protocol path), or on a page
// costing the hop more than pageCliffLimit times a small value.
// Benchmarks missing from the committed file are reported
// informationally, so a stale baseline fails loudly instead of silently
// shrinking coverage.
func compareBaseline(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base baselineFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	baseline := make(map[string]BaselineResult, len(base.Results))
	for _, r := range base.Results {
		baseline[r.Name] = r
	}
	fresh, err := runBenches()
	if err != nil {
		return err
	}
	var failures []string
	freshNs := make(map[string]float64, len(fresh))
	for _, r := range fresh {
		freshNs[r.Name] = r.NsPerOp
	}
	if ratio := freshNs["get_loopback_6k"] / freshNs["get_loopback_256"]; ratio > pageCliffLimit {
		failures = append(failures, fmt.Sprintf(
			"get_loopback_6k is %.2fx get_loopback_256 in this run (limit %.2fx): a page costs the hop more than one write and one read",
			ratio, pageCliffLimit))
	} else {
		fmt.Fprintf(os.Stderr, "ok    get_loopback_6k / get_loopback_256 = %.2f (limit %.2f)\n", ratio, pageCliffLimit)
	}
	for _, r := range fresh {
		b, ok := baseline[r.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "NOTE  %s: not in baseline %s (regenerate with -bench-baseline)\n", r.Name, path)
			continue
		}
		limit := nsRegressionLimit
		switch r.Name {
		case "lint_selfcheck":
			limit = lintNsLimit
			if r.NsPerOp > float64(lintAbsoluteBudget.Nanoseconds()) {
				failures = append(failures, fmt.Sprintf(
					"%s: %.1fs wall clock exceeds the %s CI budget",
					r.Name, r.NsPerOp/1e9, lintAbsoluteBudget))
			}
		case "loadgen_knee":
			limit = kneeNsLimit
		}
		ratio := r.NsPerOp / b.NsPerOp
		switch {
		case ratio > limit && r.NsPerOp-b.NsPerOp > nsAbsoluteSlack:
			failures = append(failures, fmt.Sprintf(
				"%s: %.1f ns/op vs baseline %.1f (%.0f%% slower, limit %.0f%%)",
				r.Name, r.NsPerOp, b.NsPerOp, (ratio-1)*100, (limit-1)*100))
		default:
			fmt.Fprintf(os.Stderr, "ok    %s: %.1f ns/op vs baseline %.1f (%+.0f%%)\n",
				r.Name, r.NsPerOp, b.NsPerOp, (ratio-1)*100)
		}
		if b.AllocsPerOp == 0 && r.AllocsPerOp > 0 {
			failures = append(failures, fmt.Sprintf(
				"%s: %d allocs/op on a zero-alloc path (baseline 0)", r.Name, r.AllocsPerOp))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "FAIL  %s\n", f)
		}
		return fmt.Errorf("%d benchmark regression(s) vs %s", len(failures), path)
	}
	fmt.Fprintf(os.Stderr, "all %d benchmarks within budget of %s\n", len(fresh), path)
	return nil
}
