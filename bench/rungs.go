package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"proteus/internal/bloom"
	"proteus/internal/cache"
	"proteus/internal/core"
	"proteus/internal/database"
	"proteus/internal/loadgen"
	"proteus/internal/memproto"
	"proteus/internal/sim"
	"proteus/internal/workload"
)

// The ladder is measured from outside: each rung times calls into one
// layer's public functions with a single caller, so a rung includes
// every layer below it and the differences between rungs are the
// layers' self times.

const rungBatches = 5

// rung times batch(n) rungBatches times and returns the median
// nanoseconds per operation and the fewest allocations per operation.
func rung(n int, batch func(n int)) (ns, allocs float64) {
	var times []float64
	allocs = -1
	var m0, m1 runtime.MemStats
	for b := 0; b < rungBatches; b++ {
		runtime.ReadMemStats(&m0)
		t := time.Now()
		batch(n)
		d := time.Since(t)
		runtime.ReadMemStats(&m1)
		times = append(times, float64(d)/float64(n))
		if a := float64(m1.Mallocs-m0.Mallocs) / float64(n); allocs < 0 || a < allocs {
			allocs = a
		}
	}
	return median(times), allocs
}

// each adapts a per-operation function to rung's batch form.
func each(fn func(i int)) func(n int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}
}

// newProbeCache is a stand-alone cache holding the corpus: the floor of
// every live rung, and the innermost span of a ladder probe (the cache
// inside a running server cannot be reached from outside).
func newProbeCache(e *liveEnv) *cache.Cache {
	c := cache.New(cache.Config{MaxBytes: 64 << 20, Clock: time.Now})
	for i, page := range e.pages {
		c.Set(e.stack.Corpus.Key(i), page, 0)
	}
	return c
}

// staticRungs times the layers that need no running stack.
func staticRungs(e *liveEnv, pc *cache.Cache, seed int64, m *metricSet) error {
	corpus := e.stack.Corpus
	keys := make([]string, corpusPages)
	for i := range keys {
		keys[i] = corpus.Key(i)
	}
	key := func(i int) string { return keys[i%len(keys)] }

	backend, err := core.NewBackend("", liveNodes)
	if err != nil {
		return err
	}
	ns, _ := rung(200_000, each(func(i int) { backend.Lookup(key(i), liveNodes) }))
	m.set("core.lookup_ns", ns)

	ns, _ = rung(200_000, each(func(i int) { pc.Get(key(i)) }))
	m.set("cache.get_ns", ns)
	ns, _ = rung(50_000, each(func(i int) { pc.Set(key(i), e.pages[i%len(keys)], 0) }))
	m.set("cache.set_ns", ns)

	// The digest every livestack node keeps.
	digest, err := bloom.NewCounting(bloom.Params{Counters: 1 << 18, CounterBits: 4, Hashes: 4, Mode: bloom.Saturate})
	if err != nil {
		return err
	}
	ns, _ = rung(len(keys), each(func(i int) { digest.Insert(key(i)) }))
	m.set("bloom.insert_ns", ns)
	ns, _ = rung(200_000, each(func(i int) { digest.Contains(key(i)) }))
	m.set("bloom.contains_ns", ns)
	snapshot, err := digest.Snapshot().MarshalBinary()
	if err != nil {
		return err
	}
	m.set("bloom.snapshot_bytes", float64(len(snapshot)))

	const lines = 50_000
	var wire bytes.Buffer
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&wire, "get %s\r\n", key(i))
	}
	parser := memproto.NewParser(nil)
	var parseErr error
	ns, _ = rung(lines, func(n int) {
		parser.Reset(bufio.NewReader(bytes.NewReader(wire.Bytes())))
		for i := 0; i < n; i++ {
			if _, err := parser.Next(); err != nil {
				parseErr = err
			}
		}
	})
	if parseErr != nil {
		return fmt.Errorf("memproto rung: %w", parseErr)
	}
	m.set("memproto.parse_get_ns", ns)
	bw := bufio.NewWriterSize(io.Discard, 64<<10)
	ns, _ = rung(100_000, each(func(i int) {
		_ = memproto.WriteValue(bw, memproto.Value{Key: key(i), Data: e.pages[i%len(keys)]}) // io.Discard cannot fail
	}))
	m.set("memproto.write_value_ns", ns)

	noop := func() {}
	ns, allocs := rung(200_000, func(n int) {
		eng := sim.NewEngine()
		for i := 0; i < n; i++ {
			eng.At(time.Duration(i), noop)
		}
		eng.Run(time.Duration(n + 1))
	})
	m.set("sim.engine_ns_per_event", ns)
	m.set("sim.engine_allocs_per_event", allocs)

	zipf, err := workload.NewZipf(rand.New(rand.NewSource(seed)), 0.99, corpusPages)
	if err != nil {
		return err
	}
	ns, _ = rung(200_000, each(func(int) { zipf.Next() }))
	m.set("workload.zipf_next_ns", ns)

	// Unqueued service time of the modelled database, the cost of one
	// prewarm miss.
	db, err := database.New(database.Config{Shards: 7, Corpus: corpus})
	if err != nil {
		return err
	}
	var dbErr error
	gets := timeEach(21, func(i int) {
		if _, err := db.Get(key(i * 211)); err != nil {
			dbErr = err
		}
	})
	if dbErr != nil {
		return fmt.Errorf("database rung: %w", dbErr)
	}
	m.setN("database.get_p50_ms", msOf(percentile(gets, 0.5)), len(gets))

	m.set("loadgen.schedule_ns_per_op", e.scheduleNsPerOp)
	return wakeLag(e, seed, m)
}

// wallClock is the sleep-paced clock proteus-loadgen gives its open-loop
// runner.
type wallClock struct{ start time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.start) }
func (c wallClock) WaitUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// wakeLag runs the repository's open-loop generator at 2000 req/s
// against an operation that does nothing. What it reports as latency is
// the generator's own wake-up lag: the reason this benchmark is closed
// loop, on the record next to the numbers it would have contaminated.
func wakeLag(e *liveEnv, seed int64, m *metricSet) error {
	runner, err := loadgen.NewRunner(loadgen.Config{
		Workers:  1,
		Duration: time.Second,
		Arrivals: loadgen.Constant{Rate: 2000},
		Keys:     e.stack.Corpus,
		Seed:     seed,
		Clock:    wallClock{start: time.Now()},
		Do:       func(loadgen.Op) error { return nil },
	})
	if err != nil {
		return err
	}
	res, err := runner.Run()
	if err != nil {
		return err
	}
	n := int(res.Hist.Count())
	m.setN("loadgen.wake_lag_p50_us", usOf(int64(res.Hist.Quantile(0.5))), n)
	m.setN("loadgen.wake_lag_p99_us", usOf(int64(res.Hist.Quantile(0.99))), n)
	return nil
}

// liveRungs times the request path rung by rung on the warm stack, one
// caller, and derives the self times that telescope to the top rung.
func liveRungs(e *liveEnv, seed int64, m *metricSet) error {
	front, coord := e.stack.Front, e.stack.Coord
	ops, err := scheduleOps(e.stack, loadgen.Mix{Get: 1, Set: 1, MultiGet: 1, MultiGetKeys: 8}, 0.99, seed, 1, 6000)
	if err != nil {
		return err
	}
	var gets, sets []string
	var batches [][]string
	for _, op := range ops {
		switch op.Kind {
		case loadgen.OpGet:
			gets = append(gets, op.Keys[0])
		case loadgen.OpSet:
			sets = append(sets, op.Keys[0])
		default:
			batches = append(batches, op.Keys)
		}
	}
	failed := 0
	expect := func(ok bool) {
		if !ok {
			failed++
		}
	}
	p50 := func(name string, lat []int64) float64 {
		v := usOf(percentile(lat, 0.5))
		m.setN(name, v, len(lat))
		return v
	}

	httpGet := p50("http.get_p50_us", timeEach(2000, func(i int) {
		_, ok := e.httpGet(0, gets[i%len(gets)], false)
		expect(ok)
	}))
	fetch := p50("webtier.fetch_p50_us", timeEach(5000, func(i int) {
		_, ok := e.fetch(gets[i%len(gets)], false)
		expect(ok)
	}))
	p50("webtier.update_p50_us", timeEach(2000, func(i int) {
		key := sets[i%len(sets)]
		expect(front.Update(key, e.pages[e.pageIndex(key)]) == nil)
	}))
	p50("webtier.fetchmany8_p50_us", timeEach(2000, func(i int) {
		keys := batches[i%len(batches)]
		got, err := front.FetchMany(keys...)
		expect(err == nil && len(got) == len(keys))
	}))

	routeNs, routeAllocs := rung(100_000, each(func(i int) {
		key := gets[i%len(gets)]
		coord.ObserveGet(key)
		coord.WriteOwners(key)
	}))
	m.set("cluster.route_ns", routeNs)
	m.set("cluster.route_allocs", routeAllocs)

	// The cache hop alone: the key's owner is worked out beforehand.
	owners := make([]int, len(gets))
	byOwner := make(map[int][]string)
	seen := make(map[string]bool)
	for i, key := range gets {
		owners[i] = coord.WriteOwners(key)[0]
		if !seen[key] {
			seen[key] = true
			byOwner[owners[i]] = append(byOwner[owners[i]], key)
		}
	}
	get := p50("cacheclient.get_p50_us", timeEach(5000, func(i int) {
		_, ok, err := coord.Client(owners[i%len(gets)]).Get(gets[i%len(gets)])
		expect(ok && err == nil)
	}))
	_, getAllocs := rung(2000, each(func(i int) {
		_, _, _ = coord.Client(owners[i%len(gets)]).Get(gets[i%len(gets)]) // checked by the rung above
	}))
	m.set("cacheclient.get_allocs", getAllocs)
	p50("cacheclient.set_p50_us", timeEach(2000, func(i int) {
		key := gets[i%len(gets)]
		expect(coord.Client(owners[i%len(gets)]).Set(key, e.pages[e.pageIndex(key)], 0) == nil)
	}))
	// Eight keys that live on one server, as FetchMany batches them.
	same := byOwner[0]
	p50("cacheclient.multiget8_p50_us", timeEach(2000, func(i int) {
		at := i * 8 % (len(same) - 8)
		got, err := coord.Client(0).MultiGet(same[at : at+8]...)
		expect(err == nil && len(got) == 8)
	}))
	p50ms := timeEach(10, func(int) {
		_, err := coord.Client(0).FetchDigest()
		expect(err == nil)
	})
	m.setN("cacheclient.fetchdigest_ms", msOf(percentile(p50ms, 0.5)), len(p50ms))
	if failed > 0 {
		return fmt.Errorf("ladder: %d rung calls failed or returned a wrong body", failed)
	}

	routeUs := routeNs / 1e3
	m.set("http.self_us", httpGet-fetch)
	m.set("webtier.self_us", fetch-get-routeUs)
	m.set("cacheclient.wire_self_us", get-m.get("cache.get_ns")/1e3)
	return nil
}

// transitionRungs times the provisioning calls and routing inside an
// open window on an otherwise idle stack: three shrink/grow cycles, the
// grow landing on a power-cycled node.
func transitionRungs(e *liveEnv, m *metricSet) error {
	coord := e.stack.Coord
	var shrink, grow, open []float64
	for cycle := 0; cycle < 3; cycle++ {
		// Refill the regrown node first, as traffic would: its digest is
		// then worth snapshotting, and the client's pooled connections to
		// the server it replaced have been found dead and dropped.
		if err := e.rewarm(); err != nil {
			return err
		}
		t := time.Now()
		if err := coord.SetActive(liveNodes - 1); err != nil {
			return err
		}
		shrink = append(shrink, float64(time.Since(t))/1e6)
		ns, _ := rung(20_000, each(func(i int) {
			key := e.stack.Corpus.Key(i % corpusPages)
			coord.ObserveGet(key)
			coord.WriteOwners(key)
			coord.RouteRing(key, 0)
		}))
		open = append(open, ns)
		coord.FinalizeNow()
		t = time.Now()
		if err := coord.SetActive(liveNodes); err != nil {
			return err
		}
		grow = append(grow, float64(time.Since(t))/1e6)
		coord.FinalizeNow()
	}
	m.setN("cluster.setactive_shrink_ms", median(shrink), len(shrink))
	m.setN("cluster.setactive_grow_ms", median(grow), len(grow))
	m.setN("cluster.route_open_ns", median(open), len(open))
	return nil
}

// probe re-times the layers under one traced read of key and records
// them as children of its root span, in the nesting the program
// performs: http.get ⊃ webtier.fetch ⊃ {cluster.route, cacheclient.get ⊃
// cache.get}. The calls run after the op, so each child is laid at its
// place inside the parent's interval with its own measured duration. It
// returns how many extra reads it sent through the web tier.
func (e *liveEnv) probe(tr *callerTrace, pc *cache.Cache, root uint32, key string, start int64) (extraReads int64) {
	coord := e.stack.Coord
	parent := root
	if e.spec.http {
		t := time.Now()
		_, _, _ = e.stack.Front.Fetch(key) // the op itself was checked
		parent = tr.add(root, root, "webtier.fetch", start, start+int64(time.Since(t)), "")
		extraReads = 1
	}
	t := time.Now()
	coord.ObserveGet(key)
	owner := coord.WriteOwners(key)[0]
	route := int64(time.Since(t))
	tr.add(parent, root, "cluster.route", start, start+route, "")

	t = time.Now()
	_, _, _ = coord.Client(owner).Get(key)
	get := int64(time.Since(t))
	hop := tr.add(parent, root, "cacheclient.get", start+route, start+route+get, "")

	t = time.Now()
	pc.Get(key)
	tr.add(hop, root, "cache.get", start+route, start+route+int64(time.Since(t)), "")
	return extraReads
}
