//go:build !race

package cacheclient

const raceEnabled = false
