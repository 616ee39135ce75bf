package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"proteus/internal/faultinject"
)

// RunAll executes independent runs on at most runtime.GOMAXPROCS(0)
// goroutines and returns their results in input order. Each run owns
// its engine, RNG and caches, so the results are exactly those of
// calling Run on each config in turn; with GOMAXPROCS=1 the runs
// execute one after another, in input order. On failure it returns
// the lowest-index run's error, as Run returned it, and no results;
// runs after the first failure may be skipped.
//
// Configs may share read-only inputs: a Corpus, a UserPool, a Plan or
// a Trace. They must not share anything a run mutates. RunAll refuses,
// before running anything, two configs holding the same non-nil Faults
// injector (its rule counters advance per decision). A stateful Policy
// (provision.DelayFeedback carries loop state across slots) must not
// be shared either; build one per config.
func RunAll(cfgs ...Config) ([]*Result, error) {
	owner := make(map[*faultinject.Injector]int)
	for i, cfg := range cfgs {
		if cfg.Faults == nil {
			continue
		}
		if j, ok := owner[cfg.Faults]; ok {
			return nil, fmt.Errorf("sim: configs %d and %d share one fault injector", j, i)
		}
		owner[cfg.Faults] = i
	}

	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	// Workers claim indices in order, so when run i fails every lower
	// index has already been claimed and will finish: stopping new
	// claims cannot hide a lower-index error.
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), len(cfgs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(cfgs) {
					return
				}
				results[i], errs[i] = Run(cfgs[i])
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
