//go:build !race

package tensor

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
