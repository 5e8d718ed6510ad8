//go:build race

package tensor

// raceEnabled reports whether the race detector is active. The 2^26-step
// PermPrefix oracle is a numeric check on one goroutine and takes over
// ten seconds under it, so it skips.
const raceEnabled = true
