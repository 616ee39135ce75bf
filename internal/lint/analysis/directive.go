package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The allowlist directive has the form
//
//	//lint:allow <analyzer> <reason...>
//
// and suppresses findings from <analyzer> on the same line or on the
// line immediately below (so the directive may sit on its own line
// above the allowed statement, matching the staticcheck //lint:ignore
// convention). The reason is mandatory: an allowlist entry with no
// recorded justification is itself a finding.
const directivePrefix = "//lint:allow"

type directive struct {
	analyzer string
	reason   string
}

// parseDirective reports whether text is a //lint:allow comment and, if
// so, its parsed fields (which may be empty when malformed).
func parseDirective(text string) (directive, bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return directive{}, false
	}
	rest := text[len(directivePrefix):]
	// Require an exact token boundary: "//lint:allowance" is not ours.
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return directive{}, false
	}
	fields := strings.Fields(rest)
	var d directive
	if len(fields) > 0 {
		d.analyzer = fields[0]
	}
	if len(fields) > 1 {
		d.reason = strings.Join(fields[1:], " ")
	}
	return d, true
}

// SuppressSplit partitions diagnostics into those that survive
// //lint:allow filtering and those a well-formed directive for their
// analyzer suppressed, on the diagnostic's line or the line above it.
func SuppressSplit(fset *token.FileSet, files []*ast.File, diags []Diagnostic) (kept, suppressed []Diagnostic) {
	if len(diags) == 0 {
		return diags, nil
	}
	// allowed maps filename -> line -> set of analyzer names allowed.
	allowed := make(map[string]map[int]map[string]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c.Text)
				if !ok || d.analyzer == "" || d.reason == "" {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := allowed[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					allowed[pos.Filename] = byLine
				}
				if byLine[pos.Line] == nil {
					byLine[pos.Line] = make(map[string]bool)
				}
				byLine[pos.Line][d.analyzer] = true
			}
		}
	}
	if len(allowed) == 0 {
		return diags, nil
	}
	kept = make([]Diagnostic, 0, len(diags))
	for _, dg := range diags {
		pos := fset.Position(dg.Pos)
		byLine := allowed[pos.Filename]
		if byLine[pos.Line][dg.Analyzer] || byLine[pos.Line-1][dg.Analyzer] {
			suppressed = append(suppressed, dg)
			continue
		}
		kept = append(kept, dg)
	}
	return kept, suppressed
}
