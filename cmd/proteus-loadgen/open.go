package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/livestack"
	"proteus/internal/loadgen"
	"proteus/internal/wiki"
	"proteus/internal/workload"
)

// wallClock anchors the run timeline to the wall clock — the live
// plane's legitimate time boundary. Everything below it (the loadgen
// core) sees only run-relative durations.
type wallClock struct {
	start time.Time
}

func newWallClock() *wallClock { return &wallClock{start: time.Now()} }

func (c *wallClock) Now() time.Duration { return time.Since(c.start) }

func (c *wallClock) WaitUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// parseMix reads "get=0.9,set=0.05,mget=0.05".
func parseMix(s string, mgetKeys int) (loadgen.Mix, error) {
	m := loadgen.Mix{MultiGetKeys: mgetKeys}
	for _, part := range splitNonEmpty(s) {
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return m, fmt.Errorf("bad -mix entry %q (want op=weight)", part)
		}
		w, err := strconv.ParseFloat(part[eq+1:], 64)
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad -mix weight %q", part)
		}
		switch part[:eq] {
		case "get":
			m.Get = w
		case "set":
			m.Set = w
		case "mget":
			m.MultiGet = w
		default:
			return m, fmt.Errorf("unknown -mix op %q (want get, set or mget)", part[:eq])
		}
	}
	return m, nil
}

// buildArrivals maps -schedule to an arrival spec at the given rate.
// diurnal synthesises a compressed-day trace of length
// duration×speedup and replays it at speedup, so the run sees the full
// diurnal swing; trace replays a recorded wikibench-format file.
func buildArrivals(o options, rate float64, corpus *wiki.Corpus) (loadgen.ArrivalSpec, error) {
	switch o.schedule {
	case "poisson":
		return loadgen.Poisson{Rate: rate}, nil
	case "constant":
		return loadgen.Constant{Rate: rate}, nil
	case "diurnal":
		traceDur := time.Duration(float64(o.duration) * o.speedup)
		var events []workload.Event
		err := workload.Generate(workload.GenConfig{
			Duration: traceDur,
			Rate:     workload.DefaultDiurnal(rate/o.speedup, traceDur),
			Corpus:   corpus,
			Seed:     o.seed,
		}, func(e workload.Event) bool {
			events = append(events, e)
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("diurnal trace synthesis: %v", err)
		}
		return loadgen.Trace{Events: events, Speedup: o.speedup}, nil
	case "trace":
		f, err := os.Open(o.tracePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var events []workload.Event
		if err := workload.ReadTrace(f, func(e workload.Event) bool {
			events = append(events, e)
			return true
		}); err != nil {
			return nil, fmt.Errorf("reading %s: %v", o.tracePath, err)
		}
		return loadgen.Trace{Events: events, Speedup: o.speedup}, nil
	default:
		return nil, fmt.Errorf("unknown -schedule %q (want poisson, constant, diurnal or trace)", o.schedule)
	}
}

// transition is one scheduled scale flip.
type transition struct {
	at time.Duration
	n  int
}

// parseTransitions reads "10s:5,20s:6" sorted by time.
func parseTransitions(s string) ([]transition, error) {
	var out []transition
	for _, part := range splitNonEmpty(s) {
		colon := strings.LastIndexByte(part, ':')
		if colon < 0 {
			return nil, fmt.Errorf("bad -transition entry %q (want t:n)", part)
		}
		at, err := time.ParseDuration(part[:colon])
		if err != nil {
			return nil, fmt.Errorf("bad -transition time %q: %v", part[:colon], err)
		}
		n, err := strconv.Atoi(part[colon+1:])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -transition target %q", part[colon+1:])
		}
		out = append(out, transition{at: at, n: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out, nil
}

// httpDoer issues open-loop operations over HTTP. Each worker sticks
// to one target front end (deterministic, no shared RNG), and the
// transport keeps one warm connection per worker.
type httpDoer struct {
	targets []string
	client  *http.Client
	corpus  *wiki.Corpus
}

func newHTTPDoer(targets []string, workers int, corpus *wiki.Corpus) *httpDoer {
	tr := &http.Transport{
		MaxIdleConns:        workers * 2,
		MaxIdleConnsPerHost: workers * 2,
		IdleConnTimeout:     90 * time.Second,
	}
	return &httpDoer{
		targets: targets,
		client:  &http.Client{Transport: tr, Timeout: 10 * time.Second},
		corpus:  corpus,
	}
}

func (d *httpDoer) do(op loadgen.Op) error {
	base := d.targets[op.Worker%len(d.targets)]
	switch op.Kind {
	case loadgen.OpGet:
		return d.get(base + "/page/" + url.PathEscape(op.Keys[0]))
	case loadgen.OpSet:
		body, ok := d.corpus.PageByKey(op.Keys[0])
		if !ok {
			return fmt.Errorf("key %q not in corpus", op.Keys[0])
		}
		req, err := http.NewRequest(http.MethodPut, base+"/page/"+url.PathEscape(op.Keys[0]), bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := d.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("PUT %s: %s", op.Keys[0], resp.Status)
		}
		return nil
	case loadgen.OpMultiGet:
		return d.get(base + "/pages?keys=" + url.QueryEscape(strings.Join(op.Keys, ",")))
	default:
		return fmt.Errorf("unknown op kind %v", op.Kind)
	}
}

func (d *httpDoer) get(u string) error {
	resp, err := d.client.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET: %s", resp.Status)
	}
	return nil
}

// runOpen dispatches the open-loop sub-modes; start brings up the
// -local stack.
func runOpen(o options, stdout io.Writer, start startFunc) error {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("proteus-loadgen: ")

	corpus, err := wiki.New(o.corpusPages, wiki.DefaultPageSize)
	if err != nil {
		return fmt.Errorf("corpus: %v", err)
	}
	if o.scheduleOnly {
		return printSchedule(o, corpus, stdout)
	}

	var targets []string
	var lc *livestack.Stack
	if o.local > 0 {
		lc, err = start(livestack.Config{
			Nodes:       o.local,
			CorpusPages: o.corpusPages,
			TTL:         o.ttl,
			Cluster:     cluster.Config{InitialActive: o.active},
		})
		if err != nil {
			return err
		}
		defer lc.Close()
		targets = []string{lc.URL}
		log.Printf("local cluster: %d servers (%d active) behind %s", o.local, lc.Coord.Active(), lc.URL)
	} else {
		targets = splitNonEmpty(o.web)
	}
	doer := newHTTPDoer(targets, o.workers, corpus)

	if o.sweep != "" {
		// A sweep wants a warm cache: read misses pay the modelled DB
		// latency, which would put a ~12 ms floor under every early
		// point's p99 and make the knee measure cache-fill instead of
		// the stack. With -local the whole corpus is fetched once
		// deterministically; against a remote -web target fall back to
		// a low-rate warmup window.
		if lc != nil {
			log.Printf("prewarming %d pages across %d fetchers", corpus.Pages(), o.workers)
			if err := lc.Prewarm(o.workers); err != nil {
				return err
			}
		}
		return runSweep(o, corpus, doer, lc == nil, stdout)
	}
	return runOnce(o, corpus, doer, stdout)
}

// baseConfig assembles the loadgen Config shared by every sub-mode.
func baseConfig(o options, rate float64, corpus *wiki.Corpus) (loadgen.Config, error) {
	arrivals, err := buildArrivals(o, rate, corpus)
	if err != nil {
		return loadgen.Config{}, err
	}
	return loadgen.Config{
		Workers:   o.workers,
		Duration:  o.duration,
		Arrivals:  arrivals,
		Mix:       o.opMix,
		Keys:      corpus,
		ZipfAlpha: o.zipf,
		Seed:      o.seed,
		Interval:  o.report,
	}, nil
}

// printSchedule emits the deterministic schedule artifact: one line
// per scheduled op. Two invocations with one flag set are
// byte-identical — the property `make loadgen-smoke` diffs.
func printSchedule(o options, corpus *wiki.Corpus, stdout io.Writer) error {
	cfg, err := baseConfig(o, o.rate, corpus)
	if err != nil {
		return err
	}
	ops, err := loadgen.ScheduleOps(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# schedule seed=%d spec=%s workers=%d duration=%v zipf=%g mix=%s ops=%d\n",
		o.seed, cfg.Arrivals, cfg.Workers, cfg.Duration, o.zipf, o.mix, len(ops))
	for _, op := range ops {
		fmt.Fprintf(stdout, "%d %d %d %s %s\n",
			op.Worker, op.Seq, op.Intended.Microseconds(), op.Kind, strings.Join(op.Keys, ","))
	}
	return nil
}

// runOnce is a single timed run, optionally flipping the active-server
// count mid-load, reporting per-interval intended-start percentiles.
func runOnce(o options, corpus *wiki.Corpus, doer *httpDoer, stdout io.Writer) error {
	transitions := o.flips
	cfg, err := baseConfig(o, o.rate, corpus)
	if err != nil {
		return err
	}
	clock := newWallClock()
	cfg.Clock = clock
	cfg.Do = doer.do

	runner, err := loadgen.NewRunner(cfg)
	if err != nil {
		return err
	}

	// Scale flips are driven off the same run timeline the schedule
	// uses, through the same admin surface an operator would hit.
	var flipErrs atomic.Uint64
	stopFlips := make(chan struct{})
	defer close(stopFlips)
	if len(transitions) > 0 {
		go func() {
			for _, tr := range transitions {
				delay := tr.at - clock.Now()
				if delay > 0 {
					select {
					case <-time.After(delay):
					case <-stopFlips:
						return
					}
				}
				if err := postActive(doer, tr.n); err != nil {
					log.Printf("transition to %d failed: %v", tr.n, err)
					flipErrs.Add(1)
					continue
				}
				log.Printf("transition: active -> %d at %v", tr.n, clock.Now().Truncate(time.Millisecond))
			}
		}()
	}

	log.Printf("open-loop: %s across %d workers for %v against %d front end(s)",
		cfg.Arrivals, cfg.Workers, cfg.Duration, len(doer.targets))
	res, err := runner.Run()
	if err != nil {
		return err
	}
	if flipErrs.Load() > 0 {
		return fmt.Errorf("%d transition request(s) failed", flipErrs.Load())
	}

	flips := analyzeFlips(res, transitions, o.report)
	emit(o, stdout,
		func(w io.Writer) { writeIntervalCSV(w, res, transitions, flips) },
		func(w io.Writer) { writeIntervalTable(w, res, transitions, flips) })
	if o.check {
		if err := checkRun(res, flips, o.maxP99Ratio, len(transitions) > 0); err != nil {
			return fmt.Errorf("-check: %w", err)
		}
		log.Printf("check: ok")
	}
	return nil
}

// postActive flips the cluster through the admin endpoint of the
// worker-0 target.
func postActive(doer *httpDoer, n int) error {
	resp, err := doer.client.Post(
		fmt.Sprintf("%s/admin/active?n=%d", doer.targets[0], n), "text/plain", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /admin/active: %s", resp.Status)
	}
	return nil
}

// flipReport is the per-transition latency verdict: worst interval p99
// inside the flip window against the pre-flip baseline.
type flipReport struct {
	tr       transition
	baseline time.Duration
	worst    time.Duration
	ratio    float64
}

// analyzeFlips computes, for each transition, the worst interval p99
// in the flip window [t, t+3·interval] against a baseline p99 — the
// median interval p99 strictly before the first transition (skipping
// the first interval, which pays cold-cache warmup).
func analyzeFlips(res *loadgen.Result, transitions []transition, interval time.Duration) []flipReport {
	if len(transitions) == 0 || len(res.Intervals) == 0 {
		return nil
	}
	var pre []time.Duration
	for _, iv := range res.Intervals {
		if iv.Start == 0 {
			continue // warmup
		}
		if iv.Start+interval > transitions[0].at {
			break
		}
		if iv.Hist.Count() > 0 {
			pre = append(pre, iv.Hist.Quantile(0.99))
		}
	}
	baseline := time.Duration(0)
	if len(pre) > 0 {
		sorted := append([]time.Duration(nil), pre...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		baseline = sorted[len(sorted)/2]
	}
	var out []flipReport
	for _, tr := range transitions {
		fr := flipReport{tr: tr, baseline: baseline}
		for _, iv := range res.Intervals {
			if iv.Start+interval <= tr.at || iv.Start > tr.at+3*interval {
				continue
			}
			if iv.Hist.Count() == 0 {
				continue
			}
			if p99 := iv.Hist.Quantile(0.99); p99 > fr.worst {
				fr.worst = p99
			}
		}
		if baseline > 0 {
			fr.ratio = float64(fr.worst) / float64(baseline)
		}
		out = append(out, fr)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeIntervalCSV emits the machine-readable run record: one row per
// reporting interval (intended-start bucketing), then transition and
// flip annotations and a summary as comments.
func writeIntervalCSV(w io.Writer, res *loadgen.Result, transitions []transition, flips []flipReport) {
	fmt.Fprintln(w, "interval_s,requests,errors,p50_ms,p99_ms,p999_ms,max_ms")
	for _, iv := range res.Intervals {
		fmt.Fprintf(w, "%.3f,%d,%d,%.3f,%.3f,%.3f,%.3f\n",
			iv.Start.Seconds(), iv.Hist.Count(), iv.Errors,
			ms(iv.Hist.Quantile(0.5)), ms(iv.Hist.Quantile(0.99)),
			ms(iv.Hist.Quantile(0.999)), ms(iv.Hist.Max()))
	}
	for _, tr := range transitions {
		fmt.Fprintf(w, "# transition %v -> %d\n", tr.at, tr.n)
	}
	for _, fr := range flips {
		fmt.Fprintf(w, "# flip at=%v to=%d baseline_p99=%.3fms worst_p99=%.3fms ratio=%.2f\n",
			fr.tr.at, fr.tr.n, ms(fr.baseline), ms(fr.worst), fr.ratio)
	}
	fmt.Fprintf(w, "# summary requests=%d errors=%d p50=%.3fms p99=%.3fms p999=%.3fms max=%.3fms maxlag=%.3fms\n",
		res.Issued, res.Errors, ms(res.Hist.Quantile(0.5)), ms(res.Hist.Quantile(0.99)),
		ms(res.Hist.Quantile(0.999)), ms(res.Hist.Max()), ms(res.MaxLag))
}

// writeIntervalTable renders the same record for humans.
func writeIntervalTable(w io.Writer, res *loadgen.Result, transitions []transition, flips []flipReport) {
	fmt.Fprintf(w, "%8s %9s %6s %10s %10s %10s %10s\n",
		"t", "requests", "errs", "p50", "p99", "p99.9", "max")
	for _, iv := range res.Intervals {
		fmt.Fprintf(w, "%8s %9d %6d %10v %10v %10v %10v\n",
			iv.Start.Truncate(time.Millisecond), iv.Hist.Count(), iv.Errors,
			iv.Hist.Quantile(0.5).Truncate(time.Microsecond),
			iv.Hist.Quantile(0.99).Truncate(time.Microsecond),
			iv.Hist.Quantile(0.999).Truncate(time.Microsecond),
			iv.Hist.Max().Truncate(time.Microsecond))
	}
	for _, fr := range flips {
		fmt.Fprintf(w, "flip %v -> %d servers: baseline p99 %v, worst flip-window p99 %v (%.2fx)\n",
			fr.tr.at, fr.tr.n, fr.baseline.Truncate(time.Microsecond),
			fr.worst.Truncate(time.Microsecond), fr.ratio)
	}
	fmt.Fprintf(w, "total: %d requests, %d errors, p99 %v, p99.9 %v, max lag %v\n",
		res.Issued, res.Errors, res.Hist.Quantile(0.99).Truncate(time.Microsecond),
		res.Hist.Quantile(0.999).Truncate(time.Microsecond), res.MaxLag.Truncate(time.Microsecond))
}

// emit writes the CSV record and/or the table per -format.
func emit(o options, stdout io.Writer, csv, table func(io.Writer)) {
	switch o.format {
	case "csv":
		csv(stdout)
	case "table":
		table(stdout)
	case "both":
		table(stdout)
		csv(stdout)
	}
}

// checkRun asserts a timed run's invariants over its measured result:
// it has intervals, their starts strictly increase, their counts and
// errors sum to the run's totals, a run with transitions saw no
// client-visible error, and (when maxRatio is set) every flip window
// stays within maxRatio of the pre-flip baseline p99.
func checkRun(res *loadgen.Result, flips []flipReport, maxRatio float64, hadTransitions bool) error {
	if len(res.Intervals) == 0 {
		return fmt.Errorf("no intervals")
	}
	var total, errs uint64
	for i, iv := range res.Intervals {
		if i > 0 && iv.Start <= res.Intervals[i-1].Start {
			return fmt.Errorf("interval starts not increasing at %v", iv.Start)
		}
		total += iv.Hist.Count()
		errs += iv.Errors
	}
	if total != res.Issued {
		return fmt.Errorf("intervals sum to %d requests, run issued %d", total, res.Issued)
	}
	if errs != res.Errors {
		return fmt.Errorf("intervals sum to %d errors, run recorded %d", errs, res.Errors)
	}
	if hadTransitions && res.Errors > 0 {
		return fmt.Errorf("%d client-visible errors across the flip", res.Errors)
	}
	if maxRatio > 0 {
		for _, fr := range flips {
			if fr.ratio > maxRatio {
				return fmt.Errorf("flip at %v: p99 ratio %.2f exceeds bound %.2f", fr.tr.at, fr.ratio, maxRatio)
			}
		}
	}
	return nil
}

// runSweep walks offered load upward, one timed window per step, and
// reports the throughput-vs-p99 curve with the knee.
func runSweep(o options, corpus *wiki.Corpus, doer *httpDoer, warmup bool, stdout io.Writer) error {
	min, max, step := o.sweepMin, o.sweepMax, o.sweepBy

	if warmup {
		// Remote target: one low-rate pass to take the edge off cold
		// misses (the deterministic prewarm needs the -local stack).
		warm := o
		warm.duration = time.Second
		if err := sweepStep(warm, min, corpus, doer, nil); err != nil {
			return fmt.Errorf("warmup: %v", err)
		}
	}

	var points []loadgen.SweepPoint
	for rate := min; rate <= max+1e-9; rate += step {
		stepOpts := o
		stepOpts.duration = o.sweepWindow
		var res *loadgen.Result
		if err := sweepStep(stepOpts, rate, corpus, doer, &res); err != nil {
			return fmt.Errorf("sweep at %g req/s: %v", rate, err)
		}
		if o.check {
			if err := checkRun(res, nil, 0, false); err != nil {
				return fmt.Errorf("-check: sweep at %g req/s: %w", rate, err)
			}
		}
		pt := loadgen.SweepPointFromResult(rate, o.sweepWindow, res)
		points = append(points, pt)
		log.Printf("sweep: offered %.0f/s achieved %.0f/s p99 %v errs %d",
			pt.Offered, pt.Achieved, pt.P99.Truncate(time.Microsecond), pt.Errors)
	}
	knee := loadgen.FindKnee(points, o.kneeP99, 0.9)

	emit(o, stdout,
		func(w io.Writer) { writeSweepCSV(w, points, knee, o.kneeP99) },
		func(w io.Writer) { writeSweepTable(w, points, knee, o.kneeP99) })
	if o.check {
		log.Printf("check: ok")
	}
	return nil
}

// sweepStep runs one fixed-rate window. out, when non-nil, receives
// the result.
func sweepStep(o options, rate float64, corpus *wiki.Corpus, doer *httpDoer, out **loadgen.Result) error {
	cfg, err := baseConfig(o, rate, corpus)
	if err != nil {
		return err
	}
	cfg.Clock = newWallClock()
	cfg.Do = doer.do
	runner, err := loadgen.NewRunner(cfg)
	if err != nil {
		return err
	}
	res, err := runner.Run()
	if err != nil {
		return err
	}
	if out != nil {
		*out = res
	}
	return nil
}

func parseSweep(s string) (min, max, step float64, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("bad -sweep %q (want min:max:step)", s)
	}
	if min, err = strconv.ParseFloat(parts[0], 64); err != nil {
		return
	}
	if max, err = strconv.ParseFloat(parts[1], 64); err != nil {
		return
	}
	if step, err = strconv.ParseFloat(parts[2], 64); err != nil {
		return
	}
	if min <= 0 || max < min || step <= 0 {
		return 0, 0, 0, fmt.Errorf("bad -sweep range %q", s)
	}
	return
}

func writeSweepCSV(w io.Writer, points []loadgen.SweepPoint, knee int, bound time.Duration) {
	fmt.Fprintln(w, "offered_rps,achieved_rps,errors,mean_ms,p50_ms,p99_ms,p999_ms")
	for _, p := range points {
		fmt.Fprintf(w, "%.1f,%.1f,%d,%.3f,%.3f,%.3f,%.3f\n",
			p.Offered, p.Achieved, p.Errors, ms(p.Mean), ms(p.P50), ms(p.P99), ms(p.P999))
	}
	if knee >= 0 {
		fmt.Fprintf(w, "# knee offered=%.1f achieved=%.1f p99=%.3fms bound=%.3fms\n",
			points[knee].Offered, points[knee].Achieved, ms(points[knee].P99), ms(bound))
	} else {
		fmt.Fprintf(w, "# knee none: first point already saturated (bound=%.3fms)\n", ms(bound))
	}
}

func writeSweepTable(w io.Writer, points []loadgen.SweepPoint, knee int, bound time.Duration) {
	fmt.Fprintf(w, "%12s %12s %6s %10s %10s %10s\n", "offered/s", "achieved/s", "errs", "p50", "p99", "p99.9")
	for i, p := range points {
		mark := " "
		if i == knee {
			mark = "*"
		}
		fmt.Fprintf(w, "%11.0f%s %12.0f %6d %10v %10v %10v\n",
			p.Offered, mark, p.Achieved, p.Errors,
			p.P50.Truncate(time.Microsecond), p.P99.Truncate(time.Microsecond),
			p.P999.Truncate(time.Microsecond))
	}
	if knee >= 0 {
		fmt.Fprintf(w, "knee (*): %.0f req/s at p99 %v (bound %v)\n",
			points[knee].Offered, points[knee].P99.Truncate(time.Microsecond), bound)
	} else {
		fmt.Fprintf(w, "knee: none — first point already saturated (bound %v)\n", bound)
	}
}
