// Command proteus-loadgen drives load against the live plane in two
// modes.
//
// -mode rbe is the RBE (remote browser emulator) of the paper's
// evaluation, preserved exactly as it has always behaved: independent
// closed-loop users, each with a 0.5-second think time and an
// independent working set of 50 pages, issuing HTTP requests against
// one or more proteus-web front ends and reporting response-time
// percentiles per reporting interval. Closed-loop users self-throttle
// under stall, so this mode understates latency during transitions
// (coordinated omission) — it exists for continuity with the paper's
// Figs. 6–7 methodology.
//
// -mode open is the honest instrument (internal/loadgen): arrivals are
// scheduled on a fixed timeline before the run — Poisson,
// constant-rate, or a diurnal trace replayed at 10–100× speed — and
// every request's latency is measured from its *intended* start, so a
// stalled cluster is charged for every request scheduled during the
// stall. It adds a rate-sweep driver that walks offered load upward to
// find the throughput-vs-p99 knee, and a -transition run that flips
// the active-server count mid-saturation and reports per-interval
// percentiles across the flip — the paper's no-spike claim measured
// under real load.
//
// Usage:
//
//	proteus-loadgen [-mode rbe] -web http://127.0.0.1:8080 [-users 200]
//	                [-duration 1m] [-corpus-pages 100000] [-report 10s] [-seed 1]
//
//	proteus-loadgen -mode open [-web URL | -local N [-active K]]
//	                [-rate 500] [-schedule poisson|constant|diurnal|trace]
//	                [-trace FILE] [-speedup 20] [-workers 32]
//	                [-mix get=0.9,set=0.05,mget=0.05] [-mget-keys 8]
//	                [-zipf 0.99] [-duration 30s] [-report 1s]
//	                [-transition 10s:5,20s:6] [-max-p99-ratio 3]
//	                [-sweep 100:2000:100] [-sweep-window 5s] [-knee-p99 50ms]
//	                [-format table|csv|both] [-schedule-only] [-check]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"proteus/internal/livestack"
	"proteus/internal/loadgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, livestack.Start); err != nil {
		fmt.Fprintln(os.Stderr, "proteus-loadgen:", err)
		os.Exit(1)
	}
}

// options carries every flag; each mode reads its subset.
type options struct {
	mode        string
	web         string
	users       int
	duration    time.Duration
	corpusPages int
	report      time.Duration
	seed        int64

	rate         float64
	schedule     string
	tracePath    string
	speedup      float64
	workers      int
	mix          string
	mgetKeys     int
	zipf         float64
	local        int
	active       int
	ttl          time.Duration
	transitions  string
	maxP99Ratio  float64
	sweep        string
	sweepWindow  time.Duration
	kneeP99      time.Duration
	format       string
	scheduleOnly bool
	check        bool

	// What parse read out of -mix, -transition and -sweep.
	opMix                       loadgen.Mix
	flips                       []transition
	sweepMin, sweepMax, sweepBy float64
}

// startFunc brings up the in-process stack behind -local.
type startFunc func(livestack.Config) (*livestack.Stack, error)

func run(args []string, stdout io.Writer, start startFunc) error {
	o, err := parse(args, stdout)
	if err != nil {
		return err
	}
	if o.mode == "rbe" {
		return runRBE(o, stdout)
	}
	return runOpen(o, stdout, start)
}

// parse reads and checks every flag. It starts nothing and touches no
// network, so a bad flag fails before a listener opens or a page is
// fetched.
func parse(args []string, stdout io.Writer) (options, error) {
	fs := flag.NewFlagSet("proteus-loadgen", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var o options
	fs.StringVar(&o.mode, "mode", "rbe", "generator mode: rbe (closed-loop paper emulator) or open (open-loop)")
	fs.StringVar(&o.web, "web", "http://127.0.0.1:8080", "comma-separated web tier base URLs")
	fs.IntVar(&o.users, "users", 200, "concurrent emulated users (rbe mode)")
	fs.DurationVar(&o.duration, "duration", time.Minute, "experiment length")
	fs.IntVar(&o.corpusPages, "corpus-pages", 100000, "corpus size (must match proteus-web)")
	fs.DurationVar(&o.report, "report", 10*time.Second, "reporting interval")
	fs.Int64Var(&o.seed, "seed", 1, "user page-set seed / open-loop schedule seed")

	fs.Float64Var(&o.rate, "rate", 500, "open mode: aggregate offered load, requests/second")
	fs.StringVar(&o.schedule, "schedule", "poisson", "open mode: arrival process — poisson, constant, diurnal, or trace")
	fs.StringVar(&o.tracePath, "trace", "", "open mode: wikibench-format trace file (-schedule trace)")
	fs.Float64Var(&o.speedup, "speedup", 20, "open mode: trace/diurnal replay speedup (10–100x typical)")
	fs.IntVar(&o.workers, "workers", 32, "open mode: concurrent connections (the offered rate is split across them)")
	fs.StringVar(&o.mix, "mix", "get=0.9,set=0.05,mget=0.05", "open mode: operation mix weights")
	fs.IntVar(&o.mgetKeys, "mget-keys", 8, "open mode: keys per MultiGet batch")
	fs.Float64Var(&o.zipf, "zipf", 0.99, "open mode: Zipf key-popularity skew (0 = uniform)")
	fs.IntVar(&o.local, "local", 0, "open mode: bring up an in-process cluster with N cache servers instead of targeting -web")
	fs.IntVar(&o.active, "active", 0, "open mode with -local: initially active servers (0 = all)")
	fs.DurationVar(&o.ttl, "ttl", 10*time.Second, "open mode with -local: transition hot-data window")
	fs.StringVar(&o.transitions, "transition", "", "open mode: comma-separated t:n scale flips applied mid-run, e.g. 10s:5,20s:6")
	fs.Float64Var(&o.maxP99Ratio, "max-p99-ratio", 0, "open mode with -check: fail when any flip-window interval p99 exceeds this multiple of the pre-flip baseline (0 = report only)")
	fs.StringVar(&o.sweep, "sweep", "", "open mode: rate sweep min:max:step, e.g. 100:2000:100 — walks offered load to find the knee")
	fs.DurationVar(&o.sweepWindow, "sweep-window", 5*time.Second, "open mode: measurement window per sweep step")
	fs.DurationVar(&o.kneeP99, "knee-p99", 50*time.Millisecond, "open mode: p99 bound defining the knee")
	fs.StringVar(&o.format, "format", "both", "open mode output: table, csv or both")
	fs.BoolVar(&o.scheduleOnly, "schedule-only", false, "open mode: print the deterministic schedule and exit without issuing load")
	fs.BoolVar(&o.check, "check", false, "open mode: assert the run invariants over the measured intervals, exiting non-zero on failure")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	switch o.format {
	case "table", "csv", "both":
	default:
		return o, fmt.Errorf("unknown -format %q (want table, csv or both)", o.format)
	}
	switch o.mode {
	case "rbe", "open":
	default:
		return o, fmt.Errorf("unknown -mode %q (want rbe or open)", o.mode)
	}
	switch o.schedule {
	case "poisson", "constant":
	case "diurnal":
		if o.speedup <= 0 {
			return o, fmt.Errorf("-speedup must be positive, got %g", o.speedup)
		}
	case "trace":
		if o.tracePath == "" {
			return o, fmt.Errorf("-schedule trace requires -trace FILE")
		}
	default:
		return o, fmt.Errorf("unknown -schedule %q (want poisson, constant, diurnal or trace)", o.schedule)
	}
	var err error
	if o.opMix, err = parseMix(o.mix, o.mgetKeys); err != nil {
		return o, err
	}
	if o.flips, err = parseTransitions(o.transitions); err != nil {
		return o, err
	}
	if o.sweep != "" {
		if o.schedule != "poisson" && o.schedule != "constant" {
			return o, fmt.Errorf("-sweep requires -schedule poisson or constant, got %q", o.schedule)
		}
		if o.sweepMin, o.sweepMax, o.sweepBy, err = parseSweep(o.sweep); err != nil {
			return o, err
		}
		if o.sweepWindow <= 0 {
			return o, fmt.Errorf("-sweep-window must be positive, got %v", o.sweepWindow)
		}
	}
	switch {
	case o.duration <= 0:
		return o, fmt.Errorf("-duration must be positive, got %v", o.duration)
	case o.workers < 0:
		return o, fmt.Errorf("-workers must not be negative, got %d", o.workers)
	case o.zipf < 0:
		return o, fmt.Errorf("-zipf must not be negative, got %g", o.zipf)
	case o.local < 0:
		return o, fmt.Errorf("-local must not be negative, got %d", o.local)
	case o.active < 0 || (o.local > 0 && o.active > o.local):
		return o, fmt.Errorf("-active %d out of range for -local %d", o.active, o.local)
	case o.mode == "open" && o.local == 0 && !o.scheduleOnly && len(splitNonEmpty(o.web)) == 0:
		return o, fmt.Errorf("at least one -web URL required (or use -local N)")
	}
	return o, nil
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
