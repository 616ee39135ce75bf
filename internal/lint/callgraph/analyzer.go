package callgraph

import (
	"fmt"
	"go/ast"
	"sort"

	"proteus/internal/lint/analysis"
)

// Analyzer is a whole-program check: unlike analysis.Analyzer, which
// sees one package at a time, its Run receives the resolved call graph
// of every loaded package and may reason across package boundaries.
// Diagnostics are still attributed to the per-position //lint:allow
// suppression machinery of the per-package framework.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow
	// directives. It shares a namespace with per-package analyzers.
	Name string
	// Doc is a one-paragraph description of the check.
	Doc string
	// Run inspects the program and returns raw findings; the driver
	// sorts them and applies //lint:allow suppression.
	Run func(prog *Program) ([]analysis.Diagnostic, error)
}

// RunAll executes a whole-program analyzer over prog and partitions
// its findings into kept and //lint:allow-suppressed, both sorted by
// analysis.Less. Directives from every loaded file apply, so a
// suppression sits next to the reported site regardless of which
// package the analyzer reasoned from.
func RunAll(a *Analyzer, prog *Program) (kept, suppressed []analysis.Diagnostic, err error) {
	diags, err := a.Run(prog)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	for i := range diags {
		if diags[i].Analyzer == "" {
			diags[i].Analyzer = a.Name
		}
	}
	var files []*ast.File
	for _, pkg := range prog.Pkgs {
		files = append(files, pkg.Files...)
	}
	kept, suppressed = analysis.SuppressSplit(prog.Fset, files, diags)
	sort.Slice(kept, func(i, j int) bool { return analysis.Less(kept[i], kept[j]) })
	sort.Slice(suppressed, func(i, j int) bool { return analysis.Less(suppressed[i], suppressed[j]) })
	return kept, suppressed, nil
}
