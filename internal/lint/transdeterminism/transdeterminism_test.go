package transdeterminism_test

import (
	"go/build"
	"strings"
	"testing"

	"proteus/internal/lint/linttest"
	"proteus/internal/lint/transdeterminism"
)

func TestFixtures(t *testing.T) {
	linttest.RunProgram(t, "testdata", transdeterminism.Analyzer,
		"helper", "proteus/internal/sim")
}

// Direct wall-clock and global-rand uses inside replay-critical
// packages, including bare references and package-level initializers.
func TestDirectFixtures(t *testing.T) {
	linttest.RunProgram(t, "testdata", transdeterminism.Analyzer,
		"proteus/internal/database", "proteus/internal/loadgen")
}

func TestScope(t *testing.T) {
	for _, p := range []string{
		"proteus/internal/sim",
		"proteus/internal/faultinject",
		"proteus/internal/core",
		"proteus/internal/database",
		"proteus/internal/cache",
		"proteus/internal/provision",
		"proteus/internal/loadgen",
		"proteus/internal/webtier",
	} {
		if !transdeterminism.ReplayCritical[p] {
			t.Errorf("%s should be replay-critical", p)
		}
	}
	for _, p := range []string{
		"proteus/internal/cacheserver",
		"proteus/internal/cacheclient",
		"proteus/internal/cluster",
		"proteus/internal/experiments",
		"proteus/cmd/proteusd",
	} {
		if transdeterminism.ReplayCritical[p] {
			t.Errorf("%s is live-plane/harness; the wall clock is its boundary", p)
		}
	}
}

// A replay-critical package may import only replay-critical packages
// of this module: a type or helper from outside the contract is how
// wall-clock code gets within reach of the simulator. The one
// exception is the conformance checker's live plane, which builds the
// real cluster on purpose (and carries a lint:allow directive for it).
func TestReplayCriticalImportClosure(t *testing.T) {
	const livePlane = "proteus/internal/livestack/livecluster"
	for path := range transdeterminism.ReplayCritical {
		pkg, err := build.ImportDir("../../../"+strings.TrimPrefix(path, "proteus/"), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if !strings.HasPrefix(imp, "proteus/") || transdeterminism.ReplayCritical[imp] {
				continue
			}
			if path == "proteus/internal/check" && imp == livePlane {
				continue
			}
			t.Errorf("replay-critical %s imports %s, which is outside the determinism contract", path, imp)
		}
	}
}
