package main

import (
	"bytes"
	"encoding/csv"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"proteus/internal/livestack"
	"proteus/internal/loadgen"
)

func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown mode", []string{"-mode", "closed"}},
		{"bad format", []string{"-mode", "open", "-format", "json"}},
		{"bad mix", []string{"-mode", "open", "-schedule-only", "-mix", "get=x"}},
		{"unknown mix op", []string{"-mode", "open", "-schedule-only", "-mix", "del=1"}},
		{"bad schedule", []string{"-mode", "open", "-schedule-only", "-schedule", "burst"}},
		{"trace without file", []string{"-mode", "open", "-schedule-only", "-schedule", "trace"}},
		{"bad sweep", []string{"-mode", "open", "-local", "1", "-sweep", "10:5:1"}},
		{"sweep on diurnal", []string{"-mode", "open", "-local", "1", "-schedule", "diurnal", "-sweep", "10:20:5"}},
		{"bad transition", []string{"-mode", "open", "-local", "1", "-transition", "10s"}},
		{"active beyond local", []string{"-mode", "open", "-local", "2", "-active", "3"}},
		{"negative mix weight", []string{"-mode", "open", "-local", "1", "-mix", "get=-1"}},
		{"no web target", []string{"-mode", "open", "-web", ","}},
		{"positional args", []string{"extra"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A rejected flag set must fail before any stack starts.
			start := func(livestack.Config) (*livestack.Stack, error) {
				t.Fatalf("run(%v) started a stack", tc.args)
				return nil, nil
			}
			var out bytes.Buffer
			if err := run(tc.args, &out, start); err == nil {
				t.Fatalf("run(%v) succeeded, want error", tc.args)
			}
		})
	}
}

// TestScheduleDeterminism pins the smoke-test contract: the same seed
// yields a byte-identical schedule, a different seed does not.
func TestScheduleDeterminism(t *testing.T) {
	args := func(seed string) []string {
		return []string{
			"-mode", "open", "-schedule-only", "-schedule", "poisson",
			"-rate", "200", "-duration", "2s", "-workers", "4",
			"-corpus-pages", "1000", "-seed", seed,
		}
	}
	render := func(seed string) string {
		var out bytes.Buffer
		if err := run(args(seed), &out, livestack.Start); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	a, b := render("42"), render("42")
	if a != b {
		t.Fatal("same seed produced different schedules")
	}
	if c := render("43"); c == a {
		t.Fatal("different seed produced an identical schedule")
	}
	if !strings.HasPrefix(a, "# schedule seed=42 ") {
		t.Fatalf("missing schedule header, got %q", a[:min(len(a), 60)])
	}
	// Every op line: worker seq intended_us kind keys.
	line := regexp.MustCompile(`^\d+ \d+ \d+ (get|set|mget) \S+$`)
	lines := strings.Split(strings.TrimRight(a, "\n"), "\n")
	if len(lines) < 100 {
		t.Fatalf("schedule suspiciously short: %d lines", len(lines))
	}
	for _, l := range lines[1:] {
		if !line.MatchString(l) {
			t.Fatalf("malformed schedule line %q", l)
		}
	}
}

// TestOpenModeLocalCSV drives a real in-process cluster briefly, with
// one scale-down mid-run, and checks the machine-readable output format
// that -check does not read: the header, seven numeric fields per row,
// the flip comment and the summary. -check itself asserts the run
// invariants over the measured values.
func TestOpenModeLocalCSV(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-mode", "open", "-local", "2", "-rate", "100", "-duration", "900ms",
		"-report", "300ms", "-workers", "4", "-corpus-pages", "500",
		"-seed", "7", "-transition", "600ms:1", "-format", "csv", "-check",
	}, &out, livestack.Start)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	rows := csvRows(t, out.String(), "interval_s,requests,errors,p50_ms,p99_ms,p999_ms,max_ms")
	if len(rows) < 2 {
		t.Fatalf("only %d interval rows", len(rows))
	}
	flip := regexp.MustCompile(`^# flip at=600ms to=1 baseline_p99=[0-9.]+ms worst_p99=[0-9.]+ms ratio=[0-9.]+$`)
	flipSeen, summarySeen := false, false
	for _, l := range strings.Split(out.String(), "\n") {
		flipSeen = flipSeen || flip.MatchString(l)
		summarySeen = summarySeen || strings.HasPrefix(l, "# summary requests=")
	}
	if !flipSeen || !summarySeen {
		t.Fatalf("flip comment seen %v, summary seen %v in:\n%s", flipSeen, summarySeen, out.String())
	}
}

// TestSweepCSVFormat pins the sweep record: the header, one numeric row
// per point, and a knee comment whether or not a knee was found.
func TestSweepCSVFormat(t *testing.T) {
	points := []loadgen.SweepPoint{
		{Offered: 100, Achieved: 99.5, Mean: time.Millisecond, P50: time.Millisecond, P99: 2 * time.Millisecond, P999: 3 * time.Millisecond},
		{Offered: 200, Achieved: 150, Errors: 3, Mean: 40 * time.Millisecond, P50: 30 * time.Millisecond, P99: 90 * time.Millisecond, P999: 120 * time.Millisecond},
	}
	for _, tc := range []struct {
		knee int
		want string
	}{
		{0, "# knee offered=100.0 achieved=99.5 p99=2.000ms bound=50.000ms"},
		{-1, "# knee none: first point already saturated (bound=50.000ms)"},
	} {
		var out bytes.Buffer
		writeSweepCSV(&out, points, tc.knee, 50*time.Millisecond)
		if rows := csvRows(t, out.String(), "offered_rps,achieved_rps,errors,mean_ms,p50_ms,p99_ms,p999_ms"); len(rows) != len(points) {
			t.Fatalf("knee %d: %d rows for %d points", tc.knee, len(rows), len(points))
		}
		if !strings.Contains(out.String(), "\n"+tc.want+"\n") {
			t.Fatalf("knee %d: no line %q in:\n%s", tc.knee, tc.want, out.String())
		}
	}
}

// TestCheckRunRejects feeds checkRun results that break each run
// invariant in turn.
func TestCheckRunRejects(t *testing.T) {
	good := func() *loadgen.Result {
		res := &loadgen.Result{Issued: 3, Errors: 1}
		res.Intervals = make([]loadgen.Interval, 2)
		res.Intervals[1].Start = time.Second
		res.Intervals[0].Hist.Observe(time.Millisecond)
		res.Intervals[1].Hist.Observe(time.Millisecond)
		res.Intervals[1].Hist.Observe(time.Millisecond)
		res.Intervals[1].Errors = 1
		return res
	}
	if err := checkRun(good(), nil, 0, false); err != nil {
		t.Fatalf("consistent run rejected: %v", err)
	}
	flip := []flipReport{{tr: transition{at: time.Second, n: 1}, ratio: 3}}
	for name, tc := range map[string]struct {
		mutate      func(*loadgen.Result)
		flips       []flipReport
		maxRatio    float64
		transitions bool
	}{
		"no intervals":       {mutate: func(r *loadgen.Result) { r.Intervals = nil }},
		"starts not rising":  {mutate: func(r *loadgen.Result) { r.Intervals[1].Start = 0 }},
		"requests mismatch":  {mutate: func(r *loadgen.Result) { r.Issued++ }},
		"errors mismatch":    {mutate: func(r *loadgen.Result) { r.Errors++ }},
		"errors across flip": {transitions: true},
		"flip ratio":         {flips: flip, maxRatio: 2},
	} {
		res := good()
		if tc.mutate != nil {
			tc.mutate(res)
		}
		if err := checkRun(res, tc.flips, tc.maxRatio, tc.transitions); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := checkRun(good(), flip, 3, false); err != nil {
		t.Errorf("flip ratio at the bound rejected: %v", err)
	}
}

// csvRows parses the non-comment lines of a CSV record, checks the
// header, and checks every row has as many fields as the header, each
// a number.
func csvRows(t *testing.T, out, header string) [][]string {
	t.Helper()
	var data []string
	for _, l := range strings.Split(out, "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			data = append(data, l)
		}
	}
	recs, err := csv.NewReader(strings.NewReader(strings.Join(data, "\n"))).ReadAll()
	if err != nil || len(recs) == 0 {
		t.Fatalf("CSV does not parse (%v):\n%s", err, out)
	}
	if got := strings.Join(recs[0], ","); got != header {
		t.Fatalf("CSV header %q, want %q", got, header)
	}
	for _, rec := range recs[1:] {
		for _, f := range rec {
			if _, err := strconv.ParseFloat(f, 64); err != nil {
				t.Fatalf("row %v: field %q is not numeric", rec, f)
			}
		}
	}
	return recs[1:]
}

// TestRBEMode checks the preserved closed-loop emulator still runs and
// reports in its historical format against a stub web tier.
func TestRBEMode(t *testing.T) {
	var hits int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/page/") {
			http.NotFound(w, r)
			return
		}
		hits++
		_, _ = w.Write([]byte("ok"))
	}))
	defer srv.Close()

	var out bytes.Buffer
	err := run([]string{
		"-mode", "rbe", "-web", srv.URL, "-users", "4",
		"-duration", "700ms", "-report", "300ms",
		"-corpus-pages", "500", "-seed", "3",
	}, &out, livestack.Start)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if hits == 0 {
		t.Fatal("rbe mode issued no requests")
	}
	// The historical report-line format, unchanged by the refactor.
	report := regexp.MustCompile(`^\d{2}:\d{2}:\d{2}  n=\d+\s+mean=\S+\s+p50=\S+\s+p99=\S+\s+p99\.9=\S+\s+errs=\d+$`)
	for _, l := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		if l == "" {
			continue
		}
		if !report.MatchString(l) {
			t.Fatalf("rbe report line changed format: %q", l)
		}
	}
}
