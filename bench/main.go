// Command bench is the repository benchmark: five closed-loop workloads,
// the end-to-end metrics a user or operator sees, and a latency ladder
// measured from outside the layers. BENCHMARK.json at the repository
// root declares it; README.md beside this file explains it.
//
//	bash bench/run.sh                                   all workloads, untraced then traced
//	bash bench/run.sh --workload fetch_get --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -compare A/runs.jsonl B/runs.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all five, untraced then traced)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 15, "length of the measured window")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics (one workload only)")
	out := fs.String("out", "bench/out", "directory for runs.jsonl and the span files")
	compare := fs.Bool("compare", false, "compare two runs.jsonl files under the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A/runs.jsonl B/runs.jsonl")
			return 2
		}
		breach, err := compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if breach {
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}

	if *name != "" {
		spec, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		rec, err := runOne(spec, *seed, *seconds, *trace, *out, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		// The driver reads the last line of standard output.
		last, err := json.Marshal(rec.result)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(last))
		if !rec.Correct {
			return 1
		}
		return 0
	}

	began := time.Now()
	allCorrect := true
	for _, tr := range []int{0, 1} {
		for _, spec := range workloads {
			rec, err := runOne(spec, *seed, *seconds, tr, *out, stdout)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			allCorrect = allCorrect && rec.Correct
			// Workloads share nothing: each closed its own stack, and
			// the heap is collected before the next one starts.
			runtime.GC()
		}
	}
	fmt.Fprintf(stdout, "total wall time %.1f s, every output check passed: %v\n", time.Since(began).Seconds(), allCorrect)
	if !allCorrect {
		return 1
	}
	return 0
}

// runOne runs one workload once, prints it and appends it to runs.jsonl.
func runOne(spec workloadSpec, seed int64, seconds, trace int, outDir string, w io.Writer) (*record, error) {
	var rec *record
	var err error
	if trace == 1 {
		rec, err = runTraced(spec, seed, seconds, outDir)
	} else {
		rec, err = runUntraced(spec, seed, seconds)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	printRecord(w, rec)
	return rec, appendRecord(filepath.Join(outDir, "runs.jsonl"), rec)
}

func printRecord(w io.Writer, r *record) {
	h := r.Header
	fmt.Fprintf(w, "== %s  trace=%d seed=%d seconds=%d  callers=%d nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		r.Workload, r.Trace, r.Seed, r.Seconds, h.Callers, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
	defs := endToEnd
	if r.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		line := fmt.Sprintf("%-32s %16.4f %s", d.Name, r.Metrics[d.Name].Value, d.Unit)
		if n, ok := r.Samples[d.Name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	if r.Trace == 0 {
		n := r.Samples["latency_p99_us"]
		fmt.Fprintf(w, "%-32s %16.6f ratio  (%d of %d)\n", "error_share", float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
		fmt.Fprintf(w, "latency_p99_us has %d samples beyond it; the highest percentile with at least ten beyond is p%g\n",
			samplesBeyond(n, 0.99), 100*highestResolved(n))
	}
	for _, note := range r.Notes {
		fmt.Fprintln(w, note)
	}
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "check %s %s", verdict, c.Name)
		if c.Detail != "" {
			fmt.Fprintf(w, " (%s)", c.Detail)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "wall %.1f s\n", r.WallS)
}

func appendRecord(path string, r *record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
