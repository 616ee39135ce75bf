package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1) // 1..1000
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1}} {
		if got := percentile(s, tc.q); got != tc.want {
			t.Errorf("percentile(1..1000, %g) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
}

func TestHighestResolvedNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{4, 0.5},          // sim_day: four scenario runs
		{99, 0.5},         // p90 would have 9 beyond
		{100, 0.9},        // exactly 10 beyond p90
		{999, 0.9},        // p99 would have 9 beyond
		{1000, 0.99},      // exactly 10 beyond p99
		{10_000, 0.999},   // exactly 10 beyond p99.9
		{442_648, 0.9999}, // a 5 s fetch_get run
	} {
		if got := highestResolved(tc.n); got != tc.want {
			t.Errorf("highestResolved(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	if got := samplesBeyond(1000, 0.99); got != 10 {
		t.Errorf("samplesBeyond(1000, 0.99) = %d, want 10", got)
	}
}

// The driver takes quartiles with Python's statistics.quantiles(v, n=4);
// these are its answers for the same inputs.
func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	vals := []float64{10, 12, 11, 15, 14, 13, 19, 17, 16, 18} // quantiles: 11.75, 14.5, 17.25
	if got, want := spread(vals), (17.25-11.75)/14.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got, want := spread([]float64{1, 2, 4}), (4.0-1.0)/2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of three = %v, want %v", got, want)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "webtier.fetch", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "cluster.route", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "cacheclient.get", Start: 10, End: 70},
		{ID: 4, Parent: 3, Name: "cache.get", Start: 10, End: 15},
		// Overlaps span 3 and runs past the parent: only 70..100 is new.
		{ID: 5, Parent: 1, Name: "cacheclient.get", Start: 60, End: 130},
		{ID: 6, Name: "webtier.update", Start: 200, End: 230},
	}
	self := selfTimes(spans)
	want := map[string][]int64{
		"webtier.fetch":   {0}, // fully covered: 10 + 60 + 30
		"cluster.route":   {10},
		"cacheclient.get": {55, 70},
		"cache.get":       {5},
		"webtier.update":  {30},
	}
	for name, w := range want {
		got := self[name]
		if len(got) != len(w) {
			t.Fatalf("%s: %d self times, want %d", name, len(got), len(w))
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("%s[%d] self = %d, want %d", name, i, got[i], w[i])
			}
		}
	}
	// A layer's self time plus its children's durations telescopes to
	// its own duration when the children do not overlap.
	if sum := self["cacheclient.get"][0] + self["cache.get"][0]; sum != 60 {
		t.Errorf("cacheclient.get self + cache.get = %d, want the span's 60", sum)
	}
}

func TestCallerTraceIDsAreUniqueAndRootsOpenRequests(t *testing.T) {
	a, b := newCallerTrace(0, 2, 4), newCallerTrace(1, 2, 4)
	root := a.add(0, 0, "webtier.fetch", 0, 10, "cache")
	child := a.add(root, root, "cluster.route", 0, 1, "")
	other := b.add(0, 0, "webtier.fetch", 0, 10, "")
	if root == child || root == other || child == other {
		t.Fatalf("ids collide: %d %d %d", root, child, other)
	}
	if a.spans[0].Req != root || a.spans[1].Req != root || a.spans[1].Parent != root {
		t.Errorf("spans of one op must share the root's request id: %+v", a.spans)
	}
	for i := 0; i < 10; i++ {
		a.add(0, 0, "webtier.fetch", 0, 1, "")
	}
	if len(a.spans) != 4 {
		t.Errorf("a full buffer must drop spans, not grow: %d", len(a.spans))
	}
}

func TestDeltaOfCounters(t *testing.T) {
	before := map[string]uint64{"get_hits": 100, "cmd_set": 40, "evictions": 0}
	after := map[string]uint64{"get_hits": 350, "cmd_set": 12, "evictions": 0, "curr_items": 7}
	got := deltaCounters(before, after)
	want := map[string]uint64{
		"get_hits":   250,
		"cmd_set":    12, // lower than before: the server was power-cycled inside the window
		"evictions":  0,
		"curr_items": 7, // not seen before counts from zero
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("delta[%s] = %d, want %d", k, got[k], w)
		}
	}
}

func TestCompareRule(t *testing.T) {
	lower := boundedMetric{Name: "latency_p50_us", Better: "lower", Bound: 0.10}
	higher := boundedMetric{Name: "throughput_ops", Better: "higher", Bound: 0.10}
	setup := boundedMetric{Name: "setup_s", Better: "lower", Bound: 0.25}
	for _, tc := range []struct {
		def  boundedMetric
		a, b float64
		want bool
	}{
		{lower, 20, 21.9, false},
		{lower, 20, 22.1, true},
		{lower, 20, 10, false}, // better is never a breach
		{higher, 90_000, 81_500, false},
		{higher, 90_000, 80_000, true},
		{higher, 90_000, 120_000, false},
		{setup, 0.2, 0.6, false}, // three times worse, but under the half-second floor
		{setup, 1.7, 2.1, false}, // within 25 %
		{setup, 1.7, 2.3, true},  // beyond both the share and the floor
	} {
		if got := breaches(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("breaches(%s, %g -> %g) = %v, want %v", tc.def.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "BENCHMARK.json")
	writeJSON(t, benchPath, map[string]any{
		"workloads":  []map[string]string{{"name": "fetch_get", "why": "w"}},
		"end_to_end": []boundedMetric{{Name: "throughput_ops", Unit: "1/s", Better: "higher", Bound: 0.10}},
	})
	runs := func(name string, failed int64, values ...float64) string {
		var buf bytes.Buffer
		for _, v := range values {
			r := record{Workload: "fetch_get"}
			r.result = result{Correct: failed == 0, Attempted: 1000, Failed: failed, Metrics: map[string]metric{"throughput_ops": {Value: v, Unit: "1/s"}}}
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		// A traced record must be ignored by the comparison.
		traced, _ := json.Marshal(record{Workload: "fetch_get", Trace: 1})
		buf.Write(append(traced, '\n'))
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := runs("a.jsonl", 0, 90_000, 91_000, 89_000)
	for _, tc := range []struct {
		name   string
		path   string
		breach bool
	}{
		{"same", runs("same.jsonl", 0, 89_500, 90_500, 90_200), false},
		{"slower", runs("slow.jsonl", 0, 70_000, 71_000, 69_000), true},
		{"failing", runs("fail.jsonl", 3, 90_000, 91_000, 89_000), true},
	} {
		var out bytes.Buffer
		breach, err := compareFiles(benchPath, base, tc.path, &out)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if breach != tc.breach {
			t.Errorf("%s: breach = %v, want %v\n%s", tc.name, breach, tc.breach, out.String())
		}
		if rows := strings.Count(out.String(), "fetch_get"); rows != 2 {
			t.Errorf("%s: %d rows for fetch_get, want throughput_ops and error_share\n%s", tc.name, rows, out.String())
		}
	}
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// BENCHMARK.json is what the driver reads and the tables in metrics.go
// and run.go are what the program reports; they must name the same
// things, inside the limits the driver enforces.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bench, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := bench.Workloads[i]
		if got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, got.Name, got.Why, w.Name, w.Why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q is outside the driver's limits", w.Name)
		}
	}
	match := func(kind string, got []boundedMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
			if !name.MatchString(w.Name) || !unit.MatchString(w.Unit) || (w.Better != "lower" && w.Better != "higher") || seen[w.Name] {
				t.Errorf("%s %q is outside the driver's limits", kind, w.Name)
			}
			seen[w.Name] = true
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s %q: bound %g must be in (0, 0.25]", kind, g.Name, g.Bound)
			}
		}
	}
	match("end_to_end", bench.EndToEnd, endToEnd, true)
	match("per_layer", bench.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("the driver requires setup_s in seconds, lower is better")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("too many metrics for the driver: %d end-to-end, %d per-layer", len(endToEnd), len(perLayer))
	}
}

func TestMetricSetReportsEveryName(t *testing.T) {
	m := newMetricSet(endToEnd)
	m.setN("latency_p50_us", 20.3, 1000)
	out := m.out()
	if len(out) != len(endToEnd) {
		t.Fatalf("%d metrics out, want every one of the %d in the table", len(out), len(endToEnd))
	}
	if out["latency_p50_us"] != (metric{Value: 20.3, Unit: "us"}) || out["setup_s"] != (metric{Value: 0, Unit: "s"}) {
		t.Errorf("unexpected output %+v", out)
	}
	defer func() {
		if recover() == nil {
			t.Error("a name outside the table must panic")
		}
	}()
	m.set("no_such_metric", 1)
}
