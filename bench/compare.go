package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json that -compare reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// absoluteFloor: a worsening smaller than this is not a regression
// whatever its share of the median. Half a second of set-up is within
// what one slow prewarm costs.
var absoluteFloor = map[string]float64{"setup_s": 0.5}

// worsening is how much worse b is than a in the metric's own unit;
// negative when b is better.
func worsening(better string, a, b float64) float64 {
	if better == "higher" {
		return a - b
	}
	return b - a
}

// breaches applies one metric's rule to the medians of two sets of runs:
// b may be worse than a by at most bound as a share of a, and a
// worsening below the metric's absolute floor never counts.
func breaches(def boundedMetric, a, b float64) bool {
	worse := worsening(def.Better, a, b)
	if worse <= absoluteFloor[def.Name] {
		return false
	}
	if a < 0 {
		a = -a
	}
	return worse > def.Bound*a
}

// runSet is the untraced runs of one file: values per workload and
// metric, and the failed/attempted totals behind error_share.
type runSet struct {
	values    map[string]map[string][]float64
	failed    map[string]int64
	attempted map[string]int64
	incorrect map[string]int
}

func readRuns(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := &runSet{
		values: map[string]map[string][]float64{},
		failed: map[string]int64{}, attempted: map[string]int64{}, incorrect: map[string]int{},
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if r.Trace != 0 {
			continue
		}
		if set.values[r.Workload] == nil {
			set.values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			set.values[r.Workload][name] = append(set.values[r.Workload][name], m.Value)
		}
		set.failed[r.Workload] += r.Failed
		set.attempted[r.Workload] += r.Attempted
		if !r.Correct {
			set.incorrect[r.Workload]++
		}
	}
	return set, sc.Err()
}

func (s *runSet) errorShare(workload string) float64 {
	if s.attempted[workload] == 0 {
		return 0
	}
	return float64(s.failed[workload]) / float64(s.attempted[workload])
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether any pair breaches its bound. Each side is the median
// of that file's untraced runs; the spread column is each side's
// interquartile range as a share of its median, and a pair whose spread
// exceeds the bound is marked unresolved rather than unchanged.
func compareFiles(benchmarkPath, pathA, pathB string, w io.Writer) (breach bool, err error) {
	bench, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-12s %-20s %14s %14s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "worse", "bound", "A iqr", "B iqr", "verdict")
	for _, wl := range bench.Workloads {
		va, vb := a.values[wl.Name], b.values[wl.Name]
		if va == nil || vb == nil {
			fmt.Fprintf(w, "%-12s not in both files\n", wl.Name)
			continue
		}
		for _, def := range bench.EndToEnd {
			ma, mb := median(va[def.Name]), median(vb[def.Name])
			sa, sb := spread(va[def.Name]), spread(vb[def.Name])
			worse := 0.0
			if ma != 0 {
				worse = worsening(def.Better, ma, mb) / ma
			}
			verdict := "ok"
			switch {
			case breaches(def, ma, mb):
				verdict = "BREACH"
				breach = true
			case sa > def.Bound || sb > def.Bound:
				verdict = "unresolved (spread wider than bound)"
			}
			fmt.Fprintf(w, "%-12s %-20s %14.4f %14.4f %+8.2f%% %6.1f%% %7.2f%% %7.2f%%  %s\n",
				wl.Name, def.Name, ma, mb, 100*worse, 100*def.Bound, 100*sa, 100*sb, verdict)
		}
		// error_share: any increase is a regression, and so is a run
		// whose output checks failed.
		ea, eb := a.errorShare(wl.Name), b.errorShare(wl.Name)
		verdict := "ok"
		if eb > ea || b.incorrect[wl.Name] > 0 {
			verdict = "BREACH"
			breach = true
		}
		fmt.Fprintf(w, "%-12s %-20s %14.6f %14.6f %43s  %s (%d runs of B failed a check)\n",
			wl.Name, "error_share", ea, eb, "", verdict, b.incorrect[wl.Name])
	}
	return breach, nil
}
