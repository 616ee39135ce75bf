package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"proteus/internal/experiments"
	"proteus/internal/loadgen"
)

// workloadSpec is one set of inputs the benchmark runs. The names are
// fixed: later issues name their claim as a metric on a workload.
type workloadSpec struct {
	Name string
	Why  string

	alpha float64     // Zipf skew of the key draw; 0 is uniform
	mix   loadgen.Mix // zero is read-only
	http  bool        // ops go through the HTTP front end
	flip  bool        // SetActive 4→3→4→3 under load
	sim   bool        // the discrete-event plane, no sockets
}

var workloads = []workloadSpec{
	{
		Name:  "http_get",
		Why:   "The user-visible request over loopback HTTP; net/http does most of the work, so front-end changes move it and cache-path changes barely do.",
		alpha: 0.99, http: true,
	},
	{
		Name:  "fetch_get",
		Why:   "Same stack minus HTTP: the Algorithm 2 hit path and the cache hop do all the work, so cache-path changes show here and HTTP changes must not.",
		alpha: 0.99,
	},
	{
		Name:  "fetch_mixed",
		Why:   "Fetch 70% / Update 20% / 8-key FetchMany 10%: the same layers used differently, so a GET gain paid for by SET or MultiGet shows as a loss here.",
		alpha: 0.99, mix: loadgen.Mix{Get: 0.7, Set: 0.2, MultiGet: 0.1, MultiGetKeys: 8},
	},
	{
		Name: "fetch_flip",
		Why:  "Uniform keys while SetActive flips 4-3-4-3: digest snapshot, ownership flip, amortized migration, TTL power-off, regrow; equals fetch_get unless transitions leak.",
		flip: true,
	},
	{
		Name: "sim_day",
		Why:  "Static, Naive, Consistent and Proteus over a 48-slot simulated day: the DES plane and the only workload larger than cache (evictions, DB queueing, power).",
		sim:  true,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// setupRepeats: set-up is run this many times and setup_s is the median,
// so one slow bind or page fault does not read as a regression.
const setupRepeats = 3

// header is the machine and build a run was measured on.
type header struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Callers    int    `json:"callers"`
	Commit     string `json:"commit"`
}

func newHeader() header {
	return header{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Callers:    callers(),
		Commit:     commit(),
	}
}

// callers is the closed loop's client count: zero think time, one
// keep-alive connection each.
func callers() int { return min(2, runtime.NumCPU()) }

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// result is the driver's result format, printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

type checkList struct{ items []check }

func (c *checkList) add(name string, ok bool, detail string) {
	c.items = append(c.items, check{Name: name, OK: ok, Detail: detail})
}

func (c *checkList) allOK() bool {
	for _, it := range c.items {
		if !it.OK {
			return false
		}
	}
	return true
}

// record is one run as stored in runs.jsonl: the result plus what is
// needed to judge it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Header   header `json:"header"`
	result
	// Samples is the number of observations behind each timing.
	Samples map[string]int `json:"samples"`
	Checks  []check        `json:"checks"`
	Notes   []string       `json:"notes,omitempty"`
	WallS   float64        `json:"wall_s"`
}

func newRecord(spec workloadSpec, seed int64, seconds, trace int) *record {
	return &record{Workload: spec.Name, Seed: seed, Seconds: seconds, Trace: trace, Header: newHeader()}
}

func (r *record) finish(m *metricSet, checks *checkList, attempted, failed int64, began time.Time) {
	checks.add("no operation failed or returned a wrong body", failed == 0, fmt.Sprintf("%d of %d", failed, attempted))
	r.Correct = checks.allOK()
	r.Attempted, r.Failed = attempted, failed
	r.Metrics = m.out()
	r.Samples = m.samples
	r.Checks = checks.items
	r.WallS = time.Since(began).Seconds()
}

// setLatency reports the median and the 99th percentile of sorted
// samples, with the sample count that says how far to trust the latter.
func setLatency(m *metricSet, lat []int64) {
	m.setN("latency_p50_us", usOf(percentile(lat, 0.5)), len(lat))
	m.setN("latency_p99_us", usOf(percentile(lat, 0.99)), len(lat))
}

// liveHeapMB is the heap still in use after a forced collection. The
// caller keeps alive whatever the run is meant to retain.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runUntraced measures the end-to-end metrics of one workload with
// tracing off: set-up (median of setupRepeats), a warm-up, then the
// measured window.
func runUntraced(spec workloadSpec, seed int64, seconds int) (*record, error) {
	began := time.Now()
	rec := newRecord(spec, seed, seconds, 0)
	m := newMetricSet(endToEnd)
	checks := &checkList{}
	dur := time.Duration(seconds) * time.Second
	if spec.sim {
		return rec, runSimDay(rec, m, checks, seed, dur, began)
	}

	var ttl time.Duration
	if spec.flip {
		ttl = flipTTL(dur)
	}
	var env *liveEnv
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			// A fresh stack every time, the old one closed and collected
			// first: nothing carries over between set-ups or workloads.
			env.close()
			runtime.GC()
		}
		t := time.Now()
		var err error
		if env, err = setupLive(spec, seed, ttl); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer env.close()
	m.setN("setup_s", median(setups), len(setups))

	env.run(segment{callers: env.callers, dur: warmup})
	seg := env.run(segment{callers: env.callers, dur: dur, flips: spec.flip})

	m.set("throughput_ops", seg.throughput())
	setLatency(m, seg.lat)
	m.set("cache_served_share", float64(seg.web["hits"]+seg.web["migrated"])/float64(seg.reads))
	m.set("alloc_bytes_per_op", float64(seg.allocBytes)/float64(seg.ops))
	checks.add("web tier reported no client-visible error", seg.web["errors"] == 0, fmt.Sprintf("%d", seg.web["errors"]))
	if spec.flip {
		env.checkFlips(&seg, checks)
	}
	if seg.dropped > 0 {
		rec.Notes = append(rec.Notes, fmt.Sprintf("%d latency samples beyond the preallocated buffers were not recorded", seg.dropped))
	}
	seg.lat = nil
	m.set("live_heap_mb", liveHeapMB()) // caches, corpus and digests are still held by env
	rec.finish(m, checks, seg.ops, seg.failed, began)
	return rec, nil
}

func runSimDay(rec *record, m *metricSet, checks *checkList, seed int64, dur time.Duration, began time.Time) error {
	var day *simDay
	var setupChecks checkList
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		day, setupChecks = nil, checkList{}
		runtime.GC()
		t := time.Now()
		var err error
		if day, err = setupSimDay(experiments.Full(), seed, &setupChecks); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	checks.items = append(checks.items, setupChecks.items...)
	m.setN("setup_s", median(setups), len(setups))
	res, err := day.run(dur)
	if err != nil {
		return err
	}
	res.check(checks)
	m.set("throughput_ops", float64(res.requests)/res.wall.Seconds())
	setLatency(m, res.scenarioWalls())
	m.set("cache_served_share", res.servedShare())
	m.set("alloc_bytes_per_op", float64(res.allocBytes)/float64(res.requests))
	m.set("live_heap_mb", liveHeapMB())
	runtime.KeepAlive(res) // the last set's results are what a figure would be drawn from
	rec.finish(m, checks, int64(res.requests), 0, began)
	return nil
}

// runTraced measures the per-layer metrics: the ladder rungs with one
// caller on a warm stack, then the workload once untraced and once with
// spans, then the provisioning calls on the idle stack.
func runTraced(spec workloadSpec, seed int64, seconds int, outDir string) (*record, error) {
	began := time.Now()
	rec := newRecord(spec, seed, seconds, 1)
	m := newMetricSet(perLayer)
	checks := &checkList{}
	pass := time.Duration(seconds) * time.Second / 3

	var ttl time.Duration
	if spec.flip {
		ttl = flipTTL(pass)
	}
	env, err := setupLive(spec, seed, ttl)
	if err != nil {
		return nil, err
	}
	defer env.close()
	pc := newProbeCache(env)
	if err := staticRungs(env, pc, seed, m); err != nil {
		return nil, err
	}
	if err := liveRungs(env, seed, m); err != nil {
		return nil, err
	}

	var attempted, failed int64
	if spec.sim {
		day, err := setupSimDay(experiments.Quick(), seed, checks)
		if err != nil {
			return nil, err
		}
		res, err := day.run(0)
		if err != nil {
			return nil, err
		}
		res.check(checks)
		res.layerMetrics(m)
		attempted = int64(res.requests)
	} else {
		one := env.run(segment{callers: 1, dur: pass / 2})
		plain := env.run(segment{callers: env.callers, dur: pass, flips: spec.flip})
		if spec.flip {
			env.checkFlips(&plain, checks)
			if err := env.rewarm(); err != nil {
				return nil, err
			}
		}
		traced := env.run(segment{callers: env.callers, dur: pass, flips: spec.flip, probe: pc})
		if spec.flip {
			env.checkFlips(&traced, checks)
		}
		attempted = one.ops + plain.ops + traced.ops
		failed = one.failed + plain.failed + traced.failed
		env.passMetrics(m, &one, &plain, &traced)
		checks.add("web tier reported no client-visible error", traced.web["errors"] == 0, fmt.Sprintf("%d", traced.web["errors"]))
		if err := writeTrace(filepath.Join(outDir, spec.Name+".trace.jsonl"), traced.traces); err != nil {
			return nil, err
		}
		rec.Notes = append(rec.Notes, underLoadLadder(traced.traces)...)
	}
	if err := transitionRungs(env, m); err != nil {
		return nil, err
	}
	rec.finish(m, checks, attempted, failed, began)
	return rec, nil
}

// passMetrics fills the rows that come from the workload passes: counter
// deltas over the traced pass, tails of the untraced one, and the two
// gaps that turn rung-versus-workload into numbers.
func (e *liveEnv) passMetrics(m *metricSet, one, plain, traced *segResult) {
	for _, k := range []string{"hits", "migrated", "digest_false_pos", "db_fetches", "collapsed", "cache_errors", "errors"} {
		m.set("webtier."+k, float64(traced.web[k]))
	}
	for _, k := range []string{"get_hits", "get_misses", "cmd_set", "evictions"} {
		m.set("cacheserver."+k, float64(traced.servers[k]))
	}
	m.set("cacheserver.curr_items", float64(traced.currItems))
	m.set("cluster.flips", float64(len(traced.flips)))
	if len(traced.flips) > 0 {
		// Every flip of the sequence is between the same two prefix sizes.
		remapped := len(traced.flips) * e.remapped(liveNodes-1, liveNodes)
		m.set("webtier.migrated_per_remapped", float64(traced.web["migrated"])/float64(remapped))
	}
	var old []int64
	for _, t := range traced.traces {
		for _, s := range t.spans {
			if s.Parent == 0 && s.Source == sourceOldCache {
				old = append(old, s.End-s.Start)
			}
		}
	}
	slices.Sort(old)
	m.setN("webtier.fetch_oldcache_p50_us", usOf(percentile(old, 0.5)), len(old))

	m.setN("tail.p999_us", usOf(percentile(plain.lat, 0.999)), len(plain.lat))
	m.setN("tail.max_ms", msOf(percentile(plain.lat, 1)), len(plain.lat))
	m.set("tail.slow_time_share", float64(plain.slowNs)/(float64(e.callers)*float64(plain.wall)))
	m.set("ladder.contention_us", usOf(percentile(plain.lat, 0.5))-usOf(percentile(one.lat, 0.5)))
	m.set("trace.overhead_share", 1-traced.throughput()/plain.throughput())
}

// underLoadLadder summarises the probed requests of the traced pass: per
// span name, the median duration and the median self time under the
// workload's own load. A request without a probe has no children to
// subtract, so it says nothing about self time and is left out.
func underLoadLadder(traces []*callerTrace) []string {
	probed := make(map[uint32]bool)
	for _, t := range traces {
		for _, s := range t.spans {
			if s.Parent != 0 {
				probed[s.Req] = true
			}
		}
	}
	var all []span
	for _, t := range traces {
		for _, s := range t.spans {
			if probed[s.Req] {
				all = append(all, s)
			}
		}
	}
	self := selfTimes(all)
	total := make(map[string][]int64)
	for _, s := range all {
		total[s.Name] = append(total[s.Name], s.End-s.Start)
	}
	var lines []string
	for _, name := range []string{"http.get", "webtier.fetch", "cluster.route", "cacheclient.get", "cache.get"} {
		if len(total[name]) == 0 {
			continue
		}
		slices.Sort(total[name])
		slices.Sort(self[name])
		lines = append(lines, fmt.Sprintf("under load: %-18s p50 %9.3f us  self p50 %9.3f us  n=%d",
			name, usOf(percentile(total[name], 0.5)), usOf(percentile(self[name], 0.5)), len(total[name])))
	}
	return lines
}
