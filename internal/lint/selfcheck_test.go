// The selfcheck runs the full analyzer suite — per-package and
// whole-program — over this repository, the same work
// `go run ./cmd/proteuslint ./...` does in CI, and demands a clean
// tree. Reintroducing any forbidden pattern (a wall-clock fallback in
// a replay-critical package, a leaked lock, a lock-order cycle, an
// unjoinable goroutine, an allocation on the annotated hot path) fails
// plain `go test ./...`, not just the lint step.
package lint_test

import (
	"path/filepath"
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
	// An absolute ceiling, not a comparison with an earlier run: CI lints
	// on every push, so the suite must stay interactive. It takes a few
	// seconds; tens of seconds means an analyzer went quadratic.
	if budget := 60 * time.Second; res.Duration > budget {
		t.Errorf("the analyzer suite took %v over the repository, budget %v", res.Duration, budget)
	}
	t.Logf("checked %d packages in %v (%d findings suppressed by //lint:allow)",
		res.Packages, res.Duration, len(res.Findings)-res.Unsuppressed())
}
