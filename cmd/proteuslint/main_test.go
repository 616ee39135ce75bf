package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestListNamesTheSuite(t *testing.T) {
	var buf bytes.Buffer
	list(&buf)
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	want := []string{"closecheck", "errdrop", "metrichygiene", "transdeterminism", "lockorder", "goleak", "hotalloc"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-list names %v, want %v", got, want)
	}
}

// The -json output is what CI turns into annotations: every finding
// carries the six fields CI reads, with a module-relative file.
func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	n, err := run(&buf, []string{"./internal/faultinject"}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("%d unsuppressed findings in internal/faultinject, want 0", n)
	}
	var findings []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &findings); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, buf.Bytes())
	}
	if len(findings) != 4 {
		t.Fatalf("%d findings, want the 4 suppressed time.Sleep calls:\n%s", len(findings), buf.Bytes())
	}
	for _, f := range findings {
		for _, field := range []string{"file", "line", "col", "analyzer", "message", "suppressed"} {
			if _, ok := f[field]; !ok {
				t.Errorf("finding %v lacks %q", f, field)
			}
		}
		if f["file"] != "internal/faultinject/conn.go" || f["analyzer"] != "transdeterminism" || f["suppressed"] != true {
			t.Errorf("finding %v, want a suppressed transdeterminism finding in internal/faultinject/conn.go", f)
		}
	}
}
