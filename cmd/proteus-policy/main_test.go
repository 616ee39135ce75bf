package main

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
)

// smokeArgs keeps the test sweep short: one trace, two policies, a
// compressed run.
var smokeArgs = []string{
	"-seed", "7", "-duration", "4m", "-corpus-pages", "20000",
	"-policies", "static,delay-feedback", "-traces", "diurnal",
}

func TestRunByteDeterministic(t *testing.T) {
	runOnce := func() string {
		var out bytes.Buffer
		if err := run(smokeArgs, &out); err != nil {
			t.Fatalf("sweep failed: %v\n%s", err, out.String())
		}
		return out.String()
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("same-seed sweeps differ:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

func TestRunCSVParsesAndCheckPasses(t *testing.T) {
	var out bytes.Buffer
	args := append([]string{"-format", "csv", "-check"}, smokeArgs...)
	if err := run(args, &out); err != nil {
		t.Fatalf("check failed: %v\n%s", err, out.String())
	}
	recs, err := csv.NewReader(strings.NewReader(out.String())).ReadAll()
	if err != nil {
		t.Fatalf("CSV output does not parse: %v\n%s", err, out.String())
	}
	if len(recs) != 3 { // header + 2 policies x 1 trace
		t.Fatalf("got %d CSV records, want 3:\n%s", len(recs), out.String())
	}
	if got := strings.Join(recs[0], ","); got != "trace,policy,energy_wh,slo_violation_slots,worst_p999_ms,mean_fleet,flips,deferred,mid_drain,pareto" {
		t.Fatalf("unexpected header: %s", got)
	}
	for _, rec := range recs[1:] {
		for _, f := range rec[2:9] {
			if _, err := strconv.ParseFloat(f, 64); err != nil {
				t.Fatalf("%s/%s: field %q is not numeric", rec[0], rec[1], f)
			}
		}
		if _, err := strconv.ParseBool(rec[9]); err != nil {
			t.Fatalf("%s/%s: pareto %q is not a bool", rec[0], rec[1], rec[9])
		}
		if rec[8] != "0" {
			t.Fatalf("mid_drain = %s for %s/%s, want 0", rec[8], rec[0], rec[1])
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-policies", "imaginary"}, &out); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := run([]string{"-traces", "imaginary"}, &out); err == nil {
		t.Error("unknown trace accepted")
	}
	if err := run([]string{"-format", "imaginary"}, &out); err == nil {
		t.Error("unknown format accepted")
	}
	if err := run([]string{"extra"}, &out); err == nil {
		t.Error("positional arguments accepted")
	}
}
