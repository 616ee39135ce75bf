// Command proteuslint runs the repository's analyzer suite (see
// internal/lint) over module packages — a multichecker in the
// x/tools/go/analysis sense, built purely on the standard library so it
// works in hermetic build environments. The per-package analyzers
// (closecheck, errdrop, metrichygiene) run on each package; the
// whole-program analyzers (transdeterminism, lockorder, goleak,
// hotalloc) run once over the resolved call graph of everything loaded.
//
// Usage:
//
//	go run ./cmd/proteuslint ./...
//	go run ./cmd/proteuslint -list
//	go run ./cmd/proteuslint -json ./... | jq .
//	go run ./cmd/proteuslint ./internal/sim ./internal/core
//
// Exit status is 1 when any finding survives //lint:allow filtering —
// -json reports suppressed findings too, but they do not affect the
// exit status.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"proteus/internal/lint"
)

// jsonFinding is the machine-readable shape of one finding, consumed
// by CI to emit GitHub annotations.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func main() {
	listFlag := flag.Bool("list", false, "list analyzers and exit")
	jsonFlag := flag.Bool("json", false, "emit findings as a JSON array (including suppressed ones)")
	verbose := flag.Bool("v", false, "report progress per package")
	flag.Parse()

	if *listFlag {
		list(os.Stdout)
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}
	n, err := run(os.Stdout, patterns, progress, *jsonFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "proteuslint:", err)
		os.Exit(2)
	}
	if n > 0 {
		if !*jsonFlag {
			fmt.Printf("proteuslint: %d finding(s)\n", n)
		}
		os.Exit(1)
	}
}

// list prints one line per analyzer: its name and doc.
func list(out io.Writer) {
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(out, "%-18s %s\n", a.Name, a.Doc)
	}
	for _, a := range lint.GlobalAnalyzers() {
		fmt.Fprintf(out, "%-18s %s\n", a.Name, a.Doc)
	}
}

// run prints findings to out and reports how many survive suppression.
func run(out io.Writer, patterns []string, progress io.Writer, asJSON bool) (int, error) {
	wd, err := os.Getwd()
	if err != nil {
		return 0, err
	}
	root, err := lint.FindModuleRoot(wd)
	if err != nil {
		return 0, err
	}
	res, err := lint.RunRepo(root, patterns, progress)
	if err != nil {
		return 0, err
	}
	if asJSON {
		findings := make([]jsonFinding, 0, len(res.Findings))
		for _, f := range res.Findings {
			pos := res.Fset.Position(f.Pos)
			// Module-root-relative paths: CI turns these into GitHub
			// annotations, which want workspace-relative files.
			file := pos.Filename
			if rel, err := filepath.Rel(root, file); err == nil {
				file = rel
			}
			findings = append(findings, jsonFinding{
				File:       file,
				Line:       pos.Line,
				Col:        pos.Column,
				Analyzer:   f.Analyzer,
				Message:    f.Message,
				Suppressed: f.Suppressed,
			})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			return 0, err
		}
		return res.Unsuppressed(), nil
	}
	for _, f := range res.Findings {
		if f.Suppressed {
			continue
		}
		pos := res.Fset.Position(f.Pos)
		fmt.Fprintf(out, "%s: %s (%s)\n", pos, f.Message, f.Analyzer)
	}
	return res.Unsuppressed(), nil
}
