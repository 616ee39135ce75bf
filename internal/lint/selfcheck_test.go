// The selfcheck runs the full analyzer suite — per-package and
// whole-program — over this repository, the same work
// `go run ./cmd/proteuslint ./...` does in CI, and demands a clean
// tree. Reintroducing any forbidden pattern (a wall-clock fallback in
// a replay-critical package, a leaked lock, a lock-order cycle, an
// unjoinable goroutine, an allocation on the annotated hot path) fails
// plain `go test ./...`, not just the lint step. So does a
// //lint:allow directive that no longer suppresses anything.
package lint_test

import (
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"proteus/internal/lint"
)

func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	res, err := lint.RunRepo(root, []string{"./..."}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packages < 10 {
		t.Fatalf("expanded to only %d packages; pattern expansion is broken", res.Packages)
	}
	for _, f := range res.Findings {
		if f.Suppressed {
			continue
		}
		t.Errorf("%s: %s (%s)", res.Fset.Position(f.Pos), f.Message, f.Analyzer)
	}
	checkNoDeadDirectives(t, root, res)
	// An absolute ceiling, not a comparison with an earlier run: CI lints
	// on every push, so the suite must stay interactive. It takes a few
	// seconds; tens of seconds means an analyzer went quadratic.
	if budget := 60 * time.Second; res.Duration > budget {
		t.Errorf("the analyzer suite took %v over the repository, budget %v", res.Duration, budget)
	}
	t.Logf("checked %d packages in %v (%d findings suppressed by //lint:allow)",
		res.Packages, res.Duration, len(res.Findings)-res.Unsuppressed())
}

// checkNoDeadDirectives fails on every well-formed //lint:allow
// directive in the files res checked that suppressed no finding: the
// code it excused is gone, and it would silently excuse the next
// finding to land on its line. The rule holds only for a run over
// ./...; a run over fewer packages sees fewer whole-program findings,
// which is why proteuslint itself does not apply it.
func checkNoDeadDirectives(t *testing.T, root string, res *lint.Result) {
	t.Helper()
	// A directive suppresses findings on its own line and the next.
	used := make(map[string]bool)
	for _, f := range res.Findings {
		if f.Suppressed {
			pos := res.Fset.Position(f.Pos)
			used[fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line, f.Analyzer)] = true
			used[fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line-1, f.Analyzer)] = true
		}
	}
	res.Fset.Iterate(func(tf *token.File) bool {
		if !strings.HasPrefix(tf.Name(), root+string(filepath.Separator)) {
			return true // the standard library, type-checked from source
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, tf.Name(), nil, parser.ParseComments)
		if err != nil {
			t.Error(err)
			return false
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				fields := strings.Fields(c.Text)
				if len(fields) < 3 || fields[0] != "//lint:allow" {
					continue // not a directive, or a malformed one (itself a finding)
				}
				pos := fset.Position(c.Pos())
				if !used[fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line, fields[1])] {
					t.Errorf("%s: //lint:allow %s suppresses no finding; delete it", pos, fields[1])
				}
			}
		}
		return true
	})
}
