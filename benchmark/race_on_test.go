//go:build race

package main

// raceEnabled reports whether the race detector is active; the smoke
// test's wall-clock assertion skips under it.
const raceEnabled = true
