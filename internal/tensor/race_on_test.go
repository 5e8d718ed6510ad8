//go:build race

package tensor

// raceEnabled reports whether the race detector is active. The
// million-draw ring oracles are numeric checks on one goroutine and take
// many seconds under it, so they shrink.
const raceEnabled = true
