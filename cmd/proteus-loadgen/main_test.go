package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"proteus/internal/livestack"
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

// TestOpenModeLocalCSV drives a real in-process cluster briefly and
// checks the machine-readable output shape plus the -check invariants.
func TestOpenModeLocalCSV(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-mode", "open", "-local", "2", "-rate", "100", "-duration", "900ms",
		"-report", "300ms", "-workers", "4", "-corpus-pages", "500",
		"-seed", "7", "-format", "csv", "-check",
	}, &out, livestack.Start)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if lines[0] != "interval_s,requests,errors,p50_ms,p99_ms,p999_ms,max_ms" {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}
	dataRows, summarySeen := 0, false
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, "# summary ") {
			summarySeen = true
			continue
		}
		if strings.HasPrefix(l, "#") {
			continue
		}
		if got := strings.Count(l, ","); got != 6 {
			t.Fatalf("row %q has %d commas, want 6", l, got)
		}
		dataRows++
	}
	if dataRows < 2 {
		t.Fatalf("only %d interval rows", dataRows)
	}
	if !summarySeen {
		t.Fatal("no summary comment in CSV output")
	}
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
