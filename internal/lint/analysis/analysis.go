// Package analysis is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects
// one type-checked package through a Pass and reports Diagnostics.
//
// The build environment for this repository is intentionally hermetic
// (no module proxy), so the real x/tools framework is unavailable; this
// package mirrors its shape closely enough that the analyzers in
// internal/lint/* could be ported to x/tools drivers by swapping the
// import.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives. It must be a valid identifier.
	Name string
	// Doc is a one-paragraph description of what the analyzer checks.
	Doc string
	// AppliesTo, when non-nil, restricts the analyzer to packages for
	// which it returns true (matched against the package import path).
	// Drivers honour it; test harnesses run the analyzer regardless so
	// fixtures can live under synthetic import paths.
	AppliesTo func(pkgPath string) bool
	// Run performs the check, reporting findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package to an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diagnostics []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Less orders diagnostics by position, then analyzer, then message, so
// several findings at one position print in a fixed order.
func Less(a, b Diagnostic) bool {
	if a.Pos != b.Pos {
		return a.Pos < b.Pos
	}
	if a.Analyzer != b.Analyzer {
		return a.Analyzer < b.Analyzer
	}
	return a.Message < b.Message
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// ObjectOf is a nil-safe TypesInfo.ObjectOf.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if p.TypesInfo == nil {
		return nil
	}
	return p.TypesInfo.ObjectOf(id)
}

// TypeOf is a nil-safe TypesInfo.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.TypesInfo == nil {
		return nil
	}
	return p.TypesInfo.TypeOf(e)
}

// Run executes one analyzer over one package and returns its findings
// sorted by Less, with //lint:allow-suppressed findings removed.
// Malformed directives suppress nothing; drivers surface them via
// CheckDirectives, once per package.
func Run(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	kept, _, err := RunAll(a, fset, files, pkg, info)
	return kept, err
}

// RunAll is Run, but additionally returns the findings a //lint:allow
// directive suppressed, so machine-readable drivers (proteuslint -json)
// can report the full picture. Both slices are sorted by Less.
func RunAll(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) (kept, suppressed []Diagnostic, err error) {
	pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
	if err := a.Run(pass); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	kept, suppressed = SuppressSplit(fset, files, pass.diagnostics)
	sort.Slice(kept, func(i, j int) bool { return Less(kept[i], kept[j]) })
	sort.Slice(suppressed, func(i, j int) bool { return Less(suppressed[i], suppressed[j]) })
	return kept, suppressed, nil
}

// CheckDirectives validates every //lint:allow directive in files,
// reporting malformed ones as diagnostics under the pseudo-analyzer
// "directive": a directive with no analyzer name, one with no recorded
// reason (an allowlist entry without justification is itself a
// finding), and — when known is non-nil — one naming an analyzer that
// does not exist (a typo there would silently suppress nothing).
// Drivers call it once per package, not once per analyzer.
func CheckDirectives(fset *token.FileSet, files []*ast.File, known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				switch {
				case d.analyzer == "":
					out = append(out, Diagnostic{
						Pos:      c.Pos(),
						Message:  "malformed //lint:allow directive: want //lint:allow <analyzer> <reason>",
						Analyzer: "directive",
					})
				case d.reason == "":
					out = append(out, Diagnostic{
						Pos:      c.Pos(),
						Message:  fmt.Sprintf("//lint:allow %s without a reason: every suppression must record its justification", d.analyzer),
						Analyzer: "directive",
					})
				case known != nil && !known[d.analyzer]:
					out = append(out, Diagnostic{
						Pos:      c.Pos(),
						Message:  fmt.Sprintf("//lint:allow names unknown analyzer %q (typo? it suppresses nothing)", d.analyzer),
						Analyzer: "directive",
					})
				}
			}
		}
	}
	return out
}
