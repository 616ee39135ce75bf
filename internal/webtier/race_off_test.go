//go:build !race

package webtier

const raceEnabled = false
