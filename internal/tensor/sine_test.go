package tensor

import (
	"runtime/debug"
	"slices"
	"strings"
	"testing"
)

// TestVisionFinishOffWhereFused holds the finish kernel to the builds it
// may run in: off under purego and at GOAMD64=v3 and above (read from the
// test binary's build settings, not from the tag the product reads), off
// wherever this build contracts x·y + z into one rounding, and on
// everywhere else the backend is avx2.
func TestVisionFinishOffWhereFused(t *testing.T) {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		t.Fatal("no build information in the test binary")
	}
	level, tags := "", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "GOAMD64":
			level = s.Value
		case "-tags":
			tags = s.Value
		}
	}
	v3 := level >= "v3" // v1 to v4 order as strings
	pure := slices.Contains(strings.Split(tags, ","), "purego")
	// Unfused, the product 1 − 2^-60 rounds to 1 and the sum is 0.
	fused := mulAdd(1+0x1p-30, 1-0x1p-30, -1) != 0
	want := defaultBackend.Name() == "avx2" && !v3 && !pure && !fused
	if finishVector != want {
		t.Errorf("finish kernel on: %v, want %v (backend %s, GOAMD64 %q, tags %q, x·y + z fused: %v)",
			finishVector, want, defaultBackend.Name(), level, tags, fused)
	}
}

//go:noinline
func mulAdd(x, y, z float64) float64 { return x*y + z }
