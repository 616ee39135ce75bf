package loader_test

import (
	"path/filepath"
	"strings"
	"testing"

	"proteus/internal/lint/loader"
)

func TestSrcRoot(t *testing.T) {
	l := loader.NewSrcRoot(filepath.Join("testdata", "src"))
	pkg, err := l.Load("x")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types.Path() != "x" {
		t.Errorf("package path %q, want \"x\"", pkg.Types.Path())
	}
	if len(pkg.Files) != 1 {
		t.Errorf("loaded %d files, want 1", len(pkg.Files))
	}
	if pkg.Info == nil || len(pkg.Info.Defs) == 0 {
		t.Error("type info not populated")
	}
	again, err := l.Load("x")
	if err != nil {
		t.Fatal(err)
	}
	if again != pkg {
		t.Error("Load is not memoized")
	}
	if _, err := l.Load("does/not/exist"); err == nil {
		t.Error("loading a nonexistent path should fail")
	}
}

func TestModule(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	l, err := loader.NewModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if l.ModulePath() != "proteus" {
		t.Fatalf("module path %q, want \"proteus\"", l.ModulePath())
	}
	pkg, err := l.Load("proteus/internal/lint/lintutil")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types.Path() != "proteus/internal/lint/lintutil" {
		t.Errorf("package path %q", pkg.Types.Path())
	}

	paths, err := l.ExpandPatterns([]string{"./internal/lint/..."})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, p := range paths {
		got[p] = true
		if strings.Contains(p, "testdata") {
			t.Errorf("pattern expansion leaked a testdata package: %s", p)
		}
	}
	for _, want := range []string{
		"proteus/internal/lint",
		"proteus/internal/lint/loader",
		"proteus/internal/lint/transdeterminism",
	} {
		if !got[want] {
			t.Errorf("./internal/lint/... missing %s (got %v)", want, paths)
		}
	}

	single, err := l.ExpandPatterns([]string{"./internal/cache"})
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 1 || single[0] != "proteus/internal/cache" {
		t.Errorf("./internal/cache expanded to %v", single)
	}
}
