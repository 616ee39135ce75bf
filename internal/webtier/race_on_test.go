//go:build race

package webtier

const raceEnabled = true
