package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"proteus/internal/cache"
	"proteus/internal/livestack"
	"proteus/internal/loadgen"
	"proteus/internal/webtier"
)

const (
	liveNodes   = 4
	corpusPages = 5000 // ~4 KB pages: the whole corpus fits in the cache tier
	// prewarmConcurrency is the database tier's ceiling of 7 shards × 8
	// slots; more concurrent misses would only queue.
	prewarmConcurrency = 56
	opsPerCaller       = 1 << 17 // pregenerated per caller, then cycled
	warmup             = time.Second
	// deepCheckEvery: every read is checked for length, every 64th byte
	// for byte against the corpus; the same ops carry the ladder probe
	// in a traced segment.
	deepCheckEvery = 64
	// slowOp is the stall threshold of tail.slow_time_share.
	slowOp = 5 * time.Millisecond
	// samplesPerCallerSecond sizes the preallocated latency buffers,
	// about twice the fastest workload's rate per caller.
	samplesPerCallerSecond = 200_000
)

var sourceOldCache = webtier.SourceOldCache.String()

// liveEnv is one warm live stack with the op streams that drive it.
type liveEnv struct {
	spec    workloadSpec
	callers int
	stack   *livestack.Stack
	pages   [][]byte // corpus bodies by page index, the expected outputs
	urls    []string
	ops     [][]loadgen.Op // per caller
	cursor  []int          // per caller position in ops, kept across segments
	clients []*http.Client // one keep-alive connection per caller
	bufs    [][]byte
	// scheduleNsPerOp is the generator's own cost of laying down one op.
	scheduleNsPerOp float64
}

// setupLive brings up a fresh stack, fills the caches through the miss
// path and pregenerates the op streams from the seed. Everything here is
// what setup_s charges.
func setupLive(spec workloadSpec, seed int64, ttl time.Duration) (*liveEnv, error) {
	stack, err := livestack.Start(livestack.Config{Nodes: liveNodes, CorpusPages: corpusPages, TTL: ttl})
	if err != nil {
		return nil, err
	}
	if err := stack.Prewarm(prewarmConcurrency); err != nil {
		stack.Close()
		return nil, err
	}
	callers := callers()
	e := &liveEnv{spec: spec, callers: callers, stack: stack, cursor: make([]int, callers)}
	for i := 0; i < corpusPages; i++ {
		e.pages = append(e.pages, stack.Corpus.Page(i))
		e.urls = append(e.urls, stack.URL+"/page/"+stack.Corpus.Key(i))
	}
	for c := 0; c < callers; c++ {
		e.clients = append(e.clients, &http.Client{
			Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1},
			Timeout:   10 * time.Second,
		})
		e.bufs = append(e.bufs, make([]byte, 2*len(e.pages[0])+4096))
	}
	t := time.Now()
	ops, err := scheduleOps(stack, spec.mix, spec.alpha, seed, callers, opsPerCaller)
	if err != nil {
		e.close()
		return nil, err
	}
	e.scheduleNsPerOp = float64(time.Since(t)) / float64(len(ops))
	e.ops = make([][]loadgen.Op, callers)
	for _, op := range ops {
		e.ops[op.Worker] = append(e.ops[op.Worker], op)
	}
	return e, nil
}

// scheduleOps pregenerates perCaller ops for each caller with the
// repository's own generator. Arrival times are ignored: the loop is
// closed, so only the kinds and keys are used.
func scheduleOps(stack *livestack.Stack, mix loadgen.Mix, alpha float64, seed int64, callers, perCaller int) ([]loadgen.Op, error) {
	return loadgen.ScheduleOps(loadgen.Config{
		Workers:   callers,
		Duration:  time.Second,
		Arrivals:  loadgen.Constant{Rate: float64(callers * perCaller)},
		Mix:       mix,
		Keys:      stack.Corpus,
		ZipfAlpha: alpha,
		Seed:      seed,
	})
}

func (e *liveEnv) close() {
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
	e.stack.Close()
}

func (e *liveEnv) pageIndex(key string) int {
	i, _ := e.stack.Corpus.Index(key)
	return i
}

func (e *liveEnv) checkBody(key string, body []byte, deep bool) bool {
	want := e.pages[e.pageIndex(key)]
	if len(body) != len(want) {
		return false
	}
	return !deep || bytes.Equal(body, want)
}

// do issues one op as caller c and checks its output. It returns where
// a single read was served from ("" when not known).
func (e *liveEnv) do(c int, op *loadgen.Op, deep bool) (source string, ok bool) {
	switch {
	case e.spec.http:
		return e.httpGet(c, op.Keys[0], deep)
	case op.Kind == loadgen.OpGet:
		return e.fetch(op.Keys[0], deep)
	case op.Kind == loadgen.OpSet:
		// The new value is the page itself, so every later read still
		// checks against the corpus while the write path does all of
		// its work.
		key := op.Keys[0]
		return "", e.stack.Front.Update(key, e.pages[e.pageIndex(key)]) == nil
	default:
		got, err := e.stack.Front.FetchMany(op.Keys...)
		if err != nil || len(got) != len(op.Keys) {
			return "", false
		}
		for _, k := range op.Keys {
			if !e.checkBody(k, got[k], deep) {
				return "", false
			}
		}
		return "", true
	}
}

func (e *liveEnv) fetch(key string, deep bool) (string, bool) {
	body, src, err := e.stack.Front.Fetch(key)
	if err != nil {
		return "", false
	}
	return src.String(), e.checkBody(key, body, deep)
}

func (e *liveEnv) httpGet(c int, key string, deep bool) (string, bool) {
	resp, err := e.clients[c].Get(e.urls[e.pageIndex(key)])
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	// Read into the caller's own buffer so the generator adds nothing
	// to alloc_bytes_per_op beyond what net/http itself allocates.
	buf := e.bufs[c]
	n := 0
	for n < len(buf) {
		m, err := resp.Body.Read(buf[n:])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", false
		}
	}
	if resp.StatusCode != http.StatusOK {
		return "", false
	}
	return resp.Header.Get("X-Proteus-Source"), e.checkBody(key, buf[:n], deep)
}

// reads is how many keys an op reads through Algorithm 2.
func reads(op *loadgen.Op) int64 {
	switch op.Kind {
	case loadgen.OpSet:
		return 0
	default:
		return int64(len(op.Keys))
	}
}

// rootName names the root span of an op.
func (e *liveEnv) rootName(op *loadgen.Op) string {
	switch {
	case e.spec.http:
		return "http.get"
	case op.Kind == loadgen.OpGet:
		return "webtier.fetch"
	case op.Kind == loadgen.OpSet:
		return "webtier.update"
	default:
		return "webtier.fetchmany"
	}
}

// segment is one closed-loop stretch of load on the stack.
type segment struct {
	callers int
	dur     time.Duration
	flips   bool         // drive SetActive 4→3→4→3 at ¼, ½ and ¾ of dur
	probe   *cache.Cache // non-nil records spans and ladder probes; it is the probe's innermost rung
}

type flipTiming struct {
	Target int
	Took   time.Duration
	Err    error
}

type callerRec struct {
	lat     []int64
	ops     int64
	failed  int64
	reads   int64
	slowNs  int64
	dropped int64
	trace   *callerTrace
}

type segResult struct {
	ops, failed, reads, dropped int64
	wall                        time.Duration
	lat                         []int64 // sorted nanoseconds
	slowNs                      int64
	allocBytes                  uint64
	web                         map[string]uint64 // Frontend.Stats deltas
	servers                     map[string]uint64 // cache-server stats deltas, summed over nodes
	currItems                   uint64
	flips                       []flipTiming
	traces                      []*callerTrace
}

func (r *segResult) throughput() float64 { return float64(r.ops) / r.wall.Seconds() }

// run drives the stack with seg.callers goroutines, zero think time,
// each issuing its next op when the previous one returned.
func (e *liveEnv) run(seg segment) segResult {
	recs := make([]callerRec, seg.callers)
	capacity := int(seg.dur.Seconds()*samplesPerCallerSecond) + 1
	for c := range recs {
		recs[c].lat = make([]int64, 0, capacity)
		if seg.probe != nil {
			// One root per op plus up to four probe spans on every 64th.
			recs[c].trace = newCallerTrace(c, seg.callers, capacity+capacity/8)
		}
	}
	webBefore := webCounters(e.stack.Front.Stats())
	srvBefore := e.serverCounters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	start := time.Now()
	end := start.Add(seg.dur)
	var wg sync.WaitGroup
	for c := 0; c < seg.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e.caller(c, start, end, &recs[c], seg.probe)
		}(c)
	}
	var flips []flipTiming
	if seg.flips {
		flips = e.flip(start, seg.dur)
	}
	wg.Wait()
	res := segResult{wall: time.Since(start), flips: flips}
	runtime.ReadMemStats(&m1)

	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.web = deltaCounters(webBefore, webCounters(e.stack.Front.Stats()))
	srvAfter := e.serverCounters()
	res.servers = make(map[string]uint64)
	for node, after := range srvAfter {
		for k, v := range deltaCounters(srvBefore[node], after) {
			res.servers[k] += v
		}
		res.currItems += after["curr_items"]
	}
	for c := range recs {
		r := &recs[c]
		res.ops += r.ops
		res.failed += r.failed
		res.reads += r.reads
		res.dropped += r.dropped
		res.slowNs += r.slowNs
		res.lat = append(res.lat, r.lat...)
		if r.trace != nil {
			res.traces = append(res.traces, r.trace)
		}
	}
	slices.Sort(res.lat)
	return res
}

func (e *liveEnv) caller(c int, start, end time.Time, rec *callerRec, pc *cache.Cache) {
	ops := e.ops[c]
	i := e.cursor[c]
	t0 := time.Now()
	for t0.Before(end) {
		op := &ops[i%len(ops)]
		deep := i%deepCheckEvery == 0
		source, ok := e.do(c, op, deep)
		t1 := time.Now()
		d := t1.Sub(t0)
		rec.ops++
		rec.reads += reads(op)
		if !ok {
			rec.failed++
		}
		if d > slowOp {
			rec.slowNs += int64(d)
		}
		if len(rec.lat) < cap(rec.lat) {
			rec.lat = append(rec.lat, int64(d))
		} else {
			rec.dropped++
		}
		if rec.trace != nil {
			root := rec.trace.add(0, 0, e.rootName(op), int64(t0.Sub(start)), int64(t1.Sub(start)), source)
			if deep && op.Kind == loadgen.OpGet {
				rec.reads += e.probe(rec.trace, pc, root, op.Keys[0], int64(t0.Sub(start)))
				t1 = time.Now() // the probe is tracing overhead, not latency
			}
		}
		t0 = t1
		i++
	}
	e.cursor[c] = i
}

// flip is the provisioning goroutine of fetch_flip: shrink, regrow onto
// the power-cycled node, shrink again. With the stack's TTL at dur/5 the
// last window has expired before the segment ends.
func (e *liveEnv) flip(start time.Time, dur time.Duration) []flipTiming {
	var out []flipTiming
	for k, target := range []int{liveNodes - 1, liveNodes, liveNodes - 1} {
		time.Sleep(time.Until(start.Add(dur * time.Duration(k+1) / 4)))
		t := time.Now()
		err := e.stack.Coord.SetActive(target)
		out = append(out, flipTiming{Target: target, Took: time.Since(t), Err: err})
	}
	return out
}

// flipTTL is the hot-data window of a stack whose flip segments last dur.
func flipTTL(dur time.Duration) time.Duration { return dur / 5 }

// rewarm puts a stack back to all nodes active, no window open and every
// page cached, the state a flip segment starts from.
func (e *liveEnv) rewarm() error {
	if err := e.stack.Coord.SetActive(liveNodes); err != nil {
		return err
	}
	e.stack.Coord.FinalizeNow()
	return e.stack.Prewarm(prewarmConcurrency)
}

// remapped counts the corpus keys whose owner differs between the two
// prefix sizes: the keys one flip can usefully migrate.
func (e *liveEnv) remapped(a, b int) int {
	backend := e.stack.Coord.Backend()
	n := 0
	for i := 0; i < corpusPages; i++ {
		key := e.stack.Corpus.Key(i)
		if backend.Lookup(key, a) != backend.Lookup(key, b) {
			n++
		}
	}
	return n
}

func webCounters(s webtier.Stats) map[string]uint64 {
	return map[string]uint64{
		"hits":             s.Hits,
		"migrated":         s.Migrated,
		"digest_false_pos": s.DigestFalsePos,
		"db_fetches":       s.DBFetches,
		"collapsed":        s.Collapsed,
		"cache_errors":     s.CacheErrors,
		"errors":           s.Errors,
	}
}

// serverCounters reads each running cache server's stats over its own
// protocol. A powered-off node has none.
func (e *liveEnv) serverCounters() map[int]map[string]uint64 {
	out := make(map[int]map[string]uint64)
	for i := 0; i < liveNodes; i++ {
		if i >= e.stack.Coord.Active() && !e.stack.Coord.InTransition() {
			continue
		}
		raw, err := e.stack.Coord.Client(i).Stats()
		if err != nil {
			continue
		}
		node := make(map[string]uint64)
		for _, k := range []string{"get_hits", "get_misses", "cmd_set", "evictions", "curr_items"} {
			v, _ := strconv.ParseUint(raw[k], 10, 64)
			node[k] = v
		}
		out[i] = node
	}
	return out
}

// checkFlips are the fetch_flip output checks on a finished segment. The
// detail of the first one is how long each SetActive took under load.
func (e *liveEnv) checkFlips(res *segResult, checks *checkList) {
	ok := len(res.flips) == 3
	var took []string
	for _, f := range res.flips {
		if f.Err != nil {
			ok = false
			took = append(took, fmt.Sprintf("to %d: %v", f.Target, f.Err))
			continue
		}
		took = append(took, fmt.Sprintf("to %d in %.2f ms", f.Target, float64(f.Took)/1e6))
	}
	checks.add("three flips happened without error", ok, strings.Join(took, ", "))
	checks.add("ends at 3 active nodes with no window open",
		e.stack.Coord.Active() == liveNodes-1 && !e.stack.Coord.InTransition(),
		fmt.Sprintf("active %d, in transition %v", e.stack.Coord.Active(), e.stack.Coord.InTransition()))
	limit := uint64(res.ops / 1000)
	checks.add("db fetches within 0.1% of ops", res.web["db_fetches"] <= limit,
		fmt.Sprintf("%d db fetches, %d ops", res.web["db_fetches"], res.ops))
}
