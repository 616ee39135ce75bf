// Package transdeterminism defines the analyzer enforcing the
// repository's determinism contract: replay-critical packages must
// draw time from an injected Clock and randomness from a seeded
// *rand.Rand, never from the wall clock or the process-wide math/rand
// source, and must not depend on map iteration order. Event-for-event
// replay of a fault schedule on the simulator and the live plane is
// only sound when every decision in these packages is a pure function
// of injected inputs.
//
// It reports direct uses in a replay-critical package — calls, bare
// references (c = time.Now) and package-level initializers alike — and
// uses reached *through calls* into packages outside the contract,
// closing the loophole where a critical package launders
// nondeterminism through a helper in an unconstrained package.
//
// An interface a replay-critical package declares itself is an
// injection point, exactly like a function-typed field (sim.Engine's
// clock, transition.Config.After): the critical package cannot
// construct the implementation a live-plane package hands in at its
// boundary, so CHA candidates outside the contract are not followed
// for it. The implementations inside the contract — the ones the
// simulator binds — are checked at their own edges, and an interface
// declared *outside* the contract is still followed everywhere.
package transdeterminism

import (
	"proteus/internal/lint/analysis"
	"proteus/internal/lint/callgraph"
)

// ReplayCritical is the set of packages bound by the determinism
// contract. Everything that runs under the discrete-event simulator or
// feeds deterministic placement/replay decisions is listed; the live
// network plane (cacheserver, cacheclient, cluster) and the
// measurement harness (experiments) are intentionally not, since they
// own the wall-clock boundary.
var ReplayCritical = map[string]bool{
	"proteus/internal/bloom": true,
	"proteus/internal/cache": true,
	"proteus/internal/check": true,
	"proteus/internal/chunk": true,
	// core covers every placement backend (Algorithm 1, pch, jump and
	// the Table II baselines): routing must replay bit-identically or
	// check artifacts rot.
	"proteus/internal/core":        true,
	"proteus/internal/database":    true,
	"proteus/internal/faultinject": true,
	"proteus/internal/hotkey":      true,
	// loadgen schedules arrivals before a run; the schedule must be a
	// pure function of (seed, spec), or the open-loop generator's
	// byte-identical-schedule guarantee (and `make loadgen-smoke`) breaks.
	// The wall clock enters only through the injected Clock at the
	// cmd/proteus-loadgen boundary.
	"proteus/internal/loadgen":   true,
	"proteus/internal/memproto":  true,
	"proteus/internal/metrics":   true,
	"proteus/internal/power":     true,
	"proteus/internal/provision": true,
	"proteus/internal/sim":       true,
	"proteus/internal/telemetry": true,
	// transition is the one Section IV machine all three drivers run;
	// the DES reaches it on every flip. The wall clock enters only as
	// the After the live coordinator injects at its boundary.
	"proteus/internal/transition": true,
	// webtier is Algorithm 2 as it ships, and the conformance checker
	// runs it on the DES plane: it reaches servers only through its own
	// CacheTier interface, which the live coordinator and the simulator
	// each implement at their boundary.
	"proteus/internal/webtier":  true,
	"proteus/internal/wiki":     true,
	"proteus/internal/workload": true,
}

// Analyzer is the transdeterminism check.
var Analyzer = &callgraph.Analyzer{
	Name: "transdeterminism",
	Doc:  "forbid wall-clock time, global math/rand, and map-iteration-order dependence in replay-critical packages, directly or through calls into unconstrained packages; require the injected Clock / seeded *rand.Rand idiom",
	Run:  run,
}

// escapeKinds are the nondeterminism sources this analyzer traces.
var escapeKinds = []callgraph.FactKind{
	callgraph.FactWallClock,
	callgraph.FactGlobalRand,
	callgraph.FactMapOrder,
}

// direct renders a wall-clock or global-rand use inside a critical
// package.
func direct(f callgraph.Fact) analysis.Diagnostic {
	msg := f.Desc + " reads the wall clock; replay-critical packages must use the injected Clock"
	if f.Kind == callgraph.FactGlobalRand {
		msg = f.Desc + " uses the process-wide source; use a seeded generator: rand.New(rand.NewSource(seed))"
	}
	return analysis.Diagnostic{Pos: f.Pos, Message: msg}
}

func run(prog *callgraph.Program) ([]analysis.Diagnostic, error) {
	var out []analysis.Diagnostic
	report := func(d analysis.Diagnostic) { out = append(out, d) }
	for _, r := range prog.Refs {
		if ReplayCritical[r.Pkg] {
			report(direct(r.Fact))
		}
	}
	for _, n := range prog.Nodes {
		if !ReplayCritical[n.Pkg.Path] {
			continue
		}
		// Direct uses in the critical function itself.
		for _, f := range n.Summary.Facts {
			switch f.Kind {
			case callgraph.FactWallClock, callgraph.FactGlobalRand:
				report(direct(f))
			case callgraph.FactMapOrder:
				report(analysis.Diagnostic{
					Pos:     f.Pos,
					Message: f.Desc + "; sort before use or iterate a deterministic key slice",
				})
			}
		}
		// Escapes through calls that leave the replay-critical set.
		for _, e := range n.Calls {
			if e.Iface && ReplayCritical[e.IfacePkg] {
				continue // injection point; see the package comment
			}
			for _, kind := range escapeKinds {
				for _, callee := range e.Callees {
					if ReplayCritical[callee.Pkg.Path] {
						// The callee is bound by the contract itself:
						// its direct uses are reported there, and its
						// own outward calls at its own edges.
						// Reporting here would double up.
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
