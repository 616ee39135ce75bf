// Package lint assembles the proteuslint analyzer suite. The analyzers
// encode the repository's standing invariants:
//
//   - determinism: replay-critical packages take time and randomness
//     only by injection, do not reach nondeterminism through calls
//     into unconstrained packages, and do not depend on map iteration
//     order (transdeterminism, which also holds the replay-critical
//     package list),
//   - locking: no lock-leaking returns, no blocking under a mutex
//     directly or through calls, and an acyclic global
//     mutex-acquisition-order graph (lockorder); counter mutations stay
//     under their mutex (metrichygiene),
//   - resource hygiene: connections are closed or handed off on every
//     path (closecheck), hot-path errors are never silently dropped
//     (errdrop), and every goroutine has a join or cancellation path
//     (goleak),
//   - performance: functions annotated //lint:hotpath have no static
//     allocation sites, directly or through calls (hotalloc).
//
// The first group of checks is per-package (analysis.Analyzer); the
// interprocedural ones (transdeterminism, lockorder, goleak, hotalloc)
// run over the whole-program call graph (callgraph.Analyzer).
//
// Run the suite with `go run ./cmd/proteuslint ./...` (or `make lint`).
// Suppress an individual finding with a justified directive:
//
//	//lint:allow <analyzer> <reason>
//
// placed on, or directly above, the offending line. Directives without
// a reason — or naming an analyzer that does not exist — are
// themselves findings.
package lint

import (
	"proteus/internal/lint/analysis"
	"proteus/internal/lint/callgraph"
	"proteus/internal/lint/closecheck"
	"proteus/internal/lint/errdrop"
	"proteus/internal/lint/goleak"
	"proteus/internal/lint/hotalloc"
	"proteus/internal/lint/lockorder"
	"proteus/internal/lint/metrichygiene"
	"proteus/internal/lint/transdeterminism"
)

// Analyzers returns the per-package proteuslint suite in reporting
// order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		closecheck.Analyzer,
		errdrop.Analyzer,
		metrichygiene.Analyzer,
	}
}

// GlobalAnalyzers returns the whole-program suite, run once over the
// resolved call graph of every loaded package.
func GlobalAnalyzers() []*callgraph.Analyzer {
	return []*callgraph.Analyzer{
		transdeterminism.Analyzer,
		lockorder.Analyzer,
		goleak.Analyzer,
		hotalloc.Analyzer,
	}
}

// KnownAnalyzers returns the set of valid analyzer names for
// //lint:allow validation.
func KnownAnalyzers() map[string]bool {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, a := range GlobalAnalyzers() {
		known[a.Name] = true
	}
	return known
}
