//go:build race

package core

// raceEnabled reports whether the race detector is active. Under it,
// sync.Pool deliberately drops items to widen race coverage, so the
// trainer's replicas are rebuilt at random and a run's allocated bytes
// are not meaningful.
const raceEnabled = true
