// Package transdeterminism defines the whole-program extension of the
// nodeterminism check: a replay-critical package must not reach the
// wall clock, the global math/rand source, or map-iteration-order
// dependence *through calls* into packages outside the determinism
// contract. Direct uses inside critical packages are nodeterminism's
// job (and stay reported there, once); this analyzer closes the
// loophole where a critical package launders nondeterminism through a
// helper in an unconstrained package.
//
// An interface a replay-critical package declares itself is an
// injection point, exactly like a function-typed field (sim.Engine's
// clock, transition.Config.After): the critical package cannot
// construct the implementation a live-plane package hands in at its
// boundary, so CHA candidates outside the contract are not followed
// for it. The implementations inside the contract — the ones the
// simulator binds — are checked at their own edges, and an interface
// declared *outside* the contract is still followed everywhere.
//
// It additionally reports map-iteration-order escapes observed
// directly in critical packages — a nondeterminism source the
// per-package check does not model, since recognizing it needs the
// sort-usage heuristic shared with the call-graph summaries.
package transdeterminism

import (
	"proteus/internal/lint/analysis"
	"proteus/internal/lint/callgraph"
	"proteus/internal/lint/nodeterminism"
)

// Analyzer is the transdeterminism check.
var Analyzer = &callgraph.Analyzer{
	Name: "transdeterminism",
	Doc:  "forbid replay-critical packages from reaching wall-clock time, global math/rand, or map-iteration-order dependence through calls into unconstrained packages",
	Run:  run,
}

// escapeKinds are the nondeterminism sources this analyzer traces.
var escapeKinds = []callgraph.FactKind{
	callgraph.FactWallClock,
	callgraph.FactGlobalRand,
	callgraph.FactMapOrder,
}

func run(prog *callgraph.Program) ([]analysis.Diagnostic, error) {
	var out []analysis.Diagnostic
	report := func(d analysis.Diagnostic) { out = append(out, d) }
	for _, n := range prog.Nodes {
		if !nodeterminism.ReplayCritical[n.Pkg.Path] {
			continue
		}
		// Direct map-order escapes in the critical function itself.
		for _, f := range n.Summary.Facts {
			if f.Kind == callgraph.FactMapOrder {
				report(analysis.Diagnostic{
					Pos:     f.Pos,
					Message: f.Desc + "; sort before use or iterate a deterministic key slice",
				})
			}
		}
		// Escapes through calls that leave the replay-critical set.
		for _, e := range n.Calls {
			if e.Iface && nodeterminism.ReplayCritical[e.IfacePkg] {
				continue // injection point; see the package comment
			}
			for _, kind := range escapeKinds {
				for _, callee := range e.Callees {
					if nodeterminism.ReplayCritical[callee.Pkg.Path] {
						// The callee is bound by the contract itself:
						// direct uses are nodeterminism findings there,
						// and its own outward calls are checked at its
						// own edges. Reporting here would double up.
						continue
					}
					if !callee.Reaches(kind) {
						continue
					}
					report(analysis.Diagnostic{
						Pos: e.Pos,
						Message: "call from replay-critical " + n.Name + " reaches " +
							kind.String() + " nondeterminism: " + prog.FactPathString(callee, kind),
					})
					break // one finding per kind per call site
				}
			}
		}
	}
	return out, nil
}
