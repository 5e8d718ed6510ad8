package tensor

import (
	"math"
	"sync"
	"testing"
)

// fanOut runs the last of fns on the caller and each other on a
// goroutine of its own, and returns when all have returned.
func fanOut(fns ...func()) {
	var wg sync.WaitGroup
	wg.Add(len(fns) - 1)
	for _, fn := range fns[:len(fns)-1] {
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	fns[len(fns)-1]()
	wg.Wait()
}

// inOrder and reversed run fns one at a time, first to last and last to
// first: part 0 finds part 1 not started, and finished.
func inOrder(fns ...func()) {
	for _, fn := range fns {
		fn()
	}
}

func reversed(fns ...func()) {
	for i := range fns {
		fns[len(fns)-1-i]()
	}
}

// raceShapes is alphas, or its first alone under the race detector: the
// split's concurrency is the same at every shape, and the draws are slow
// there.
func raceShapes(alphas ...float64) []float64 {
	if raceEnabled {
		return alphas[:1]
	}
	return alphas
}

// checkSplit draws one Dir(alpha) vector of n entries with
// dirichletSplit and one with DirichletInto, both from seed's stream
// after pre draws, and holds the split to the serial call: every entry's
// bits, the ring, State(), the next 10^3 draws, and RestoreRNG(State()).
func checkSplit(t *testing.T, fan func(...func()), seed int64, pre uint64, n int, alpha float64, parts, window, skew int) splitTrace {
	t.Helper()
	serial, split := NewRNG(seed), NewRNG(seed)
	serial.src.skip(pre)
	split.src.skip(pre)
	want, got := make([]float64, n), make([]float64, n)
	for i := range got {
		got[i] = math.NaN() // every entry must be written
	}
	serial.DirichletInto(want, alpha)
	tr := split.dirichletSplit(got, alpha, parts, fan, window, skew)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("α %v, n %d, %d parts, window %d, skew %d (%+v): entry %d is %v, serial %v", alpha, n, parts, window, skew, tr, i, got[i], want[i])
		}
	}
	if split.src != serial.src || split.State() != serial.State() {
		t.Fatalf("α %v, n %d, %d parts, window %d, skew %d (%+v): generator at %d, serial at %d", alpha, n, parts, window, skew, tr, split.State().Pos, serial.State().Pos)
	}
	restored, err := RestoreRNG(split.State())
	if err != nil {
		t.Fatal(err)
	}
	if restored.src != split.src {
		t.Fatalf("α %v, n %d, %d parts: RestoreRNG(State()) is not the split's generator", alpha, n, parts)
	}
	for i := range 1000 {
		if a, b := split.Int63(), serial.Int63(); a != b {
			t.Fatalf("α %v, n %d, %d parts: draw %d after the call is %d, serial %d", alpha, n, parts, i, a, b)
		}
	}
	return tr
}

// TestDirichletSplitMatchesSerial runs the split at the shapes of three-
// and two-word lanes and of the scalar math.Pow boost, for 1–4 parts, at
// each part count's threshold and one entry below it, from ring offsets
// that are not a step's, with the parts side by side and one at a time in
// either order. At the default window the parts must meet.
func TestDirichletSplitMatchesSerial(t *testing.T) {
	for _, alpha := range raceShapes(0.5, 1, 2, 0.3) {
		for parts := 1; parts <= 4; parts++ {
			at := 2 * max(parts, 2) * max(parts, 2) * splitWindow // the shortest vector split that many ways
			for _, n := range []int{at - 1, at} {
				wantParts := parts
				if n < at {
					wantParts = max(parts-1, 1)
				}
				for i, fan := range []func(...func()){fanOut, inOrder, reversed} {
					tr := checkSplit(t, fan, int64(parts), uint64(n%607), n, alpha, parts, splitWindow, 0)
					if tr.parts != wantParts || tr.met != wantParts-1 {
						t.Errorf("α %v, n %d, %d parts: ran %d parts, %d met; want %d, all met", alpha, n, parts, tr.parts, tr.met, wantParts)
					}
					if i > 0 && tr.chased != (i == 2 && wantParts > 1) {
						t.Errorf("α %v, n %d, %d parts, fan %d: chased %v", alpha, n, parts, i, tr.chased)
					}
				}
			}
		}
	}
}

// TestDirichletSplitPaths forces each way a split can end: a window too
// small to meet in (the rest drawn by the part before), every guess far
// below the true position (the last part draws on) and every guess far
// above it (the last part takes draws back with unread).
func TestDirichletSplitPaths(t *testing.T) {
	const n = 140_000
	for _, alpha := range raceShapes(0.5, 1, 0.3) {
		for parts := 2; parts <= 4; parts++ {
			for _, skew := range []int{-3000, 3000} {
				if tr := checkSplit(t, fanOut, 7, 11, n, alpha, parts, 8, skew); tr.met != 0 || tr.over >= 0 {
					t.Errorf("α %v, %d parts, window 8, skew %d: %+v, want no boundary met", alpha, parts, skew, tr)
				}
			}
			if tr := checkSplit(t, fanOut, 8, 0, n, alpha, parts, splitWindow, -splitWindow); tr.met != parts-1 || tr.over >= 0 {
				t.Errorf("α %v, %d parts, guesses low: %+v, want every boundary met and the tail drawn on", alpha, parts, tr)
			}
			if tr := checkSplit(t, fanOut, 9, 0, n, alpha, parts, splitWindow, 2*splitWindow); tr.met != parts-1 || tr.over <= 0 {
				t.Errorf("α %v, %d parts, guesses high: %+v, want every boundary met and draws taken back", alpha, parts, tr)
			}
		}
	}
}
