package lockorder_test

import (
	"reflect"
	"testing"

	"proteus/internal/lint/callgraph"
	"proteus/internal/lint/linttest"
	"proteus/internal/lint/loader"
	"proteus/internal/lint/lockorder"
)

func TestFixtures(t *testing.T) {
	linttest.RunProgram(t, "testdata", lockorder.Analyzer, "a")
}

// The intraprocedural rules: a return that leaks a held mutex and a
// direct blocking operation under one.
func TestHeldFixtures(t *testing.T) {
	linttest.RunProgram(t, "testdata", lockorder.Analyzer, "held")
}

// Findings reported once per held lock come out in one order, run after
// run: two mutexes held at one return must not print in map iteration
// order.
func TestFindingOrderIsFixed(t *testing.T) {
	l := loader.NewSrcRoot("testdata/src")
	pkg, err := l.Load("a")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := callgraph.Build(l.Fset, []*loader.Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	first, err := lockorder.Analyzer.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		got, err := lockorder.Analyzer.Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d reported\n%v\nfirst run reported\n%v", i, got, first)
		}
	}
}
