package lint

import (
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"proteus/internal/lint/analysis"
	"proteus/internal/lint/callgraph"
	"proteus/internal/lint/loader"
)

// Finding is one diagnostic with its suppression status: a finding a
// //lint:allow directive covered is still reported to machine-readable
// consumers (proteuslint -json) but does not fail the run.
type Finding struct {
	analysis.Diagnostic
	Suppressed bool
}

// Result is the outcome of one whole-repository run.
type Result struct {
	Fset     *token.FileSet
	Findings []Finding // sorted by analysis.Less; suppressed and kept interleaved
	Packages int
	Duration time.Duration
}

// Unsuppressed counts the findings that survive //lint:allow
// filtering — the number that determines exit status.
func (r *Result) Unsuppressed() int {
	n := 0
	for _, f := range r.Findings {
		if !f.Suppressed {
			n++
		}
	}
	return n
}

// RunRepo loads the module rooted at root, expands patterns, and runs
// the full analyzer suite: directive validation and the per-package
// analyzers on each package, then the whole-program analyzers over the
// resolved call graph of everything loaded. It is the single driver
// shared by cmd/proteuslint and the lint selfcheck test.
//
// progress, when non-nil, receives one line per package as it loads.
func RunRepo(root string, patterns []string, progress io.Writer) (*Result, error) {
	start := time.Now()
	l, err := loader.NewModule(root)
	if err != nil {
		return nil, err
	}
	paths, err := l.ExpandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	known := KnownAnalyzers()
	res := &Result{Fset: l.Fset, Packages: len(paths)}
	var pkgs []*loader.Package
	for _, path := range paths {
		if progress != nil {
			fmt.Fprintln(progress, "checking", path)
		}
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
		for _, d := range analysis.CheckDirectives(l.Fset, pkg.Files, known) {
			res.Findings = append(res.Findings, Finding{Diagnostic: d})
		}
		for _, a := range Analyzers() {
			if a.AppliesTo != nil && !a.AppliesTo(path) {
				continue
			}
			kept, suppressed, err := analysis.RunAll(a, l.Fset, pkg.Files, pkg.Types, pkg.Info)
			if err != nil {
				return nil, err
			}
			for _, d := range kept {
				res.Findings = append(res.Findings, Finding{Diagnostic: d})
			}
			for _, d := range suppressed {
				res.Findings = append(res.Findings, Finding{Diagnostic: d, Suppressed: true})
			}
		}
	}
	prog, err := callgraph.Build(l.Fset, pkgs)
	if err != nil {
		return nil, err
	}
	for _, a := range GlobalAnalyzers() {
		kept, suppressed, err := callgraph.RunAll(a, prog)
		if err != nil {
			return nil, err
		}
		for _, d := range kept {
			res.Findings = append(res.Findings, Finding{Diagnostic: d})
		}
		for _, d := range suppressed {
			res.Findings = append(res.Findings, Finding{Diagnostic: d, Suppressed: true})
		}
	}
	sort.Slice(res.Findings, func(i, j int) bool {
		return analysis.Less(res.Findings[i].Diagnostic, res.Findings[j].Diagnostic)
	})
	res.Duration = time.Since(start)
	return res, nil
}

// FindModuleRoot walks up from dir to the nearest go.mod.
func FindModuleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
