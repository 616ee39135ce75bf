// Package sim impersonates the replay-critical simulator package: the
// transdeterminism analyzer must flag calls that leave the determinism
// contract and reach nondeterminism in unconstrained helpers, plus
// map-iteration-order escapes observed directly here.
package sim

import (
	"sort"
	"time"

	"helper"
)

// tick launders the wall clock through an unconstrained package — the
// loophole a check of direct uses alone cannot see.
func tick() int64 {
	return helper.Stamp() // want "call from replay-critical sim.tick reaches wall-clock nondeterminism: helper.Stamp"
}

// choose reaches the global rand source two calls deep.
func choose(n int) int {
	return helper.Pick(n) // want "call from replay-critical sim.choose reaches global-rand nondeterminism: helper.Pick -> helper.pick"
}

// keysOf lets map iteration order escape into a slice.
func keysOf(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want "map iteration order escapes into a slice"
	}
	return out
}

// sortedKeysOf sorts before use: the escape is neutralized.
func sortedKeysOf(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// clock takes a function value from a helper that only references the
// wall clock — no finding.
func clock() func() time.Time {
	return helper.Clock()
}

// scale calls a deterministic helper — no finding.
func scale(n int) int {
	return helper.Double(n)
}

// within stays inside the replay-critical set; its callee is bound by
// the contract itself and reported there, so no finding here.
func within() int64 {
	return tick()
}

// Fleet is declared here, inside the contract: an injection point. The
// wall-clock implementation in helper is a live driver's business, so
// calling through the interface is not a finding.
type Fleet interface{ Boot() int64 }

func drive(f Fleet) int64 {
	return f.Boot()
}

// An interface declared outside the contract is no injection point of
// ours: its wall-clock implementations are still followed.
func stamp(s helper.Stamper) int64 {
	return s.Stamp() // want "call from replay-critical sim.stamp reaches wall-clock nondeterminism: helper.WallStamper.Stamp"
}
