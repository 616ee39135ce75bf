// Package nodeterminism defines an analyzer enforcing the repository's
// determinism contract: replay-critical packages must draw time from an
// injected Clock and randomness from a seeded *rand.Rand, never from
// the wall clock or the process-wide math/rand source. Event-for-event
// replay of a fault schedule on the simulator and the live plane (PR 1)
// is only sound when every decision in these packages is a pure
// function of injected inputs.
package nodeterminism

import (
	"go/ast"

	"proteus/internal/lint/analysis"
	"proteus/internal/lint/lintutil"
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

// WallClock lists the time package functions that read or schedule
// against the wall clock. Referencing one (even without calling it,
// e.g. `cfg.Clock = time.Now`) defeats replay. Exported so the
// whole-program transdeterminism analyzer (internal/lint/callgraph)
// shares one source-of-truth table with this direct-use check.
var WallClock = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// GlobalRand lists the math/rand package-level functions backed by the
// shared process-wide source. rand.New, rand.NewSource, and rand.NewZipf
// are absent: constructing a seeded generator is exactly the idiom the
// contract requires.
var GlobalRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true,
	"Seed": true, "Read": true,
}

// Analyzer is the nodeterminism check.
var Analyzer = &analysis.Analyzer{
	Name:      "nodeterminism",
	Doc:       "forbid wall-clock time and global math/rand in replay-critical packages; require the injected Clock / seeded *rand.Rand idiom",
	AppliesTo: func(pkgPath string) bool { return ReplayCritical[pkgPath] },
	Run:       run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath, name, ok := lintutil.PkgFuncRef(pass.TypesInfo, sel)
			if !ok {
				return true
			}
			switch {
			case pkgPath == "time" && WallClock[name]:
				pass.Reportf(sel.Pos(),
					"time.%s reads the wall clock; replay-critical packages must use the injected Clock", name)
			case pkgPath == "math/rand" && GlobalRand[name]:
				pass.Reportf(sel.Pos(),
					"rand.%s uses the process-wide source; use a seeded generator: rand.New(rand.NewSource(seed))", name)
			}
			return true
		})
	}
	return nil
}
