package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// src exercises every directive placement: same-line, line-above,
// malformed (no reason, and bare), mismatched analyzer name, and an
// unknown analyzer name (a typo that would silently suppress nothing).
const src = `package p

var s1, s2, s3, s4, s5, s6 int

func f() {
	s1 = 1 //lint:allow demo covered by the integration harness
}

func g() {
	//lint:allow demo covered by the integration harness
	s2 = 2
}

func h() {
	//lint:allow demo
	s3 = 3
}

func i() {
	//lint:allow other different analyzer, must not suppress demo
	s4 = 4
}

func j() {
	//lint:allow
	s5 = 5
}

func k() {
	//lint:allow demmo reason is present but the analyzer name is a typo
	s6 = 6
}
`

func parseSrc(t *testing.T) (*token.FileSet, []*ast.File, []token.Pos) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var assigns []token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			assigns = append(assigns, as.Pos())
		}
		return true
	})
	if len(assigns) != 6 {
		t.Fatalf("fixture has %d assignments, want 6", len(assigns))
	}
	return fset, []*ast.File{f}, assigns
}

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text     string
		ok       bool
		analyzer string
		reason   string
	}{
		{"//lint:allow demo some reason", true, "demo", "some reason"},
		{"//lint:allow demo\ttab separated reason", true, "demo", "tab separated reason"},
		{"//lint:allow demo", true, "demo", ""},
		{"//lint:allow", true, "", ""},
		{"//lint:allowance is a different word", false, "", ""},
		{"// lint:allow demo reason", false, "", ""},
		{"// ordinary comment", false, "", ""},
	}
	for _, c := range cases {
		d, ok := parseDirective(c.text)
		if ok != c.ok || d.analyzer != c.analyzer || d.reason != c.reason {
			t.Errorf("parseDirective(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.text, d.analyzer, d.reason, ok, c.analyzer, c.reason, c.ok)
		}
	}
}

func TestSuppress(t *testing.T) {
	fset, files, assigns := parseSrc(t)
	var diags []Diagnostic
	for _, pos := range assigns {
		diags = append(diags, Diagnostic{Pos: pos, Message: "assignment", Analyzer: "demo"})
	}
	kept, suppressed := SuppressSplit(fset, files, diags)
	// s1 (same-line directive) and s2 (line-above directive) are
	// suppressed; s3 (no reason), s4 (other analyzer), s5 (bare), and
	// s6 (unknown analyzer name) stay.
	if len(kept) != 4 {
		t.Fatalf("SuppressSplit kept %d diagnostics, want 4", len(kept))
	}
	wantLines := []int{16, 21, 26, 31}
	for i, d := range kept {
		if line := fset.Position(d.Pos).Line; line != wantLines[i] {
			t.Errorf("kept[%d] at line %d, want %d", i, line, wantLines[i])
		}
	}
	wantSuppressed := []int{6, 11}
	if len(suppressed) != len(wantSuppressed) {
		t.Fatalf("SuppressSplit dropped %d diagnostics, want %d", len(suppressed), len(wantSuppressed))
	}
	for i, d := range suppressed {
		if line := fset.Position(d.Pos).Line; line != wantSuppressed[i] {
			t.Errorf("suppressed[%d] at line %d, want %d", i, line, wantSuppressed[i])
		}
	}
}

func TestCheckDirectives(t *testing.T) {
	fset, files, _ := parseSrc(t)
	known := map[string]bool{"demo": true, "other": true}
	diags := CheckDirectives(fset, files, known)
	// The reasonless directive above s3, the bare one above s5, and the
	// typo'd analyzer name above s6.
	if len(diags) != 3 {
		t.Fatalf("CheckDirectives reported %d, want 3", len(diags))
	}
	for _, d := range diags {
		if d.Analyzer != "directive" {
			t.Errorf("diagnostic attributed to %q, want \"directive\"", d.Analyzer)
		}
	}
	wantLines := []int{15, 25, 30}
	wantSubstr := []string{"without a reason", "malformed", "unknown analyzer"}
	for i, d := range diags {
		if line := fset.Position(d.Pos).Line; line != wantLines[i] {
			t.Errorf("malformed directive %d at line %d, want %d", i, line, wantLines[i])
		}
		if !strings.Contains(d.Message, wantSubstr[i]) {
			t.Errorf("directive %d message %q missing %q", i, d.Message, wantSubstr[i])
		}
	}
	// Without a known-analyzer set, name validation is skipped but the
	// reasonless and bare directives still report.
	if got := CheckDirectives(fset, files, nil); len(got) != 2 {
		t.Fatalf("CheckDirectives(nil known) reported %d, want 2", len(got))
	}
}

func TestRunSortsAndSuppresses(t *testing.T) {
	fset, files, assigns := parseSrc(t)
	a := &Analyzer{
		Name: "demo",
		Doc:  "flags every assignment twice, in reverse order to exercise sorting",
		Run: func(pass *Pass) error {
			for i := len(assigns) - 1; i >= 0; i-- {
				pass.Reportf(assigns[i], "assignment b")
				pass.Reportf(assigns[i], "assignment a")
			}
			return nil
		},
	}
	diags, err := Run(a, fset, files, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 8 {
		t.Fatalf("Run returned %d diagnostics, want 8", len(diags))
	}
	for i := 1; i < len(diags); i++ {
		if !Less(diags[i-1], diags[i]) {
			t.Errorf("diagnostics not sorted: %v then %v", diags[i-1], diags[i])
		}
	}
}
