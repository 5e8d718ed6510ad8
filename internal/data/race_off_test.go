//go:build !race

package data

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
