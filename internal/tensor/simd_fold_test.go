package tensor

import (
	"math"
	"testing"
)

// foldSpecials are the values the fold kernels must carry exactly like
// their twins: NaNs of four payloads (math.NaN's, the x86 default one
// 0·Inf makes, and two more with the sign set and clear), both
// infinities, both zeros, subnormals and the ends of the range.
var foldSpecials = []float64{
	math.NaN(), math.Float64frombits(0xFFF8000000000000),
	math.Float64frombits(0x7FF8000000001234), math.Float64frombits(0xFFF800000000ABCD),
	math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -1e-310,
	math.MaxFloat64, -math.MaxFloat64,
}

// foldVector is an n-element vector of normals with specials scattered
// through it.
func foldVector(rng *RNG, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Normal(0, 1)
		if rng.Float64() < 0.15 {
			x[i] = foldSpecials[rng.Intn(len(foldSpecials))]
		}
	}
	return x
}

// foldLengths covers every tail of the kernels' blocks and the
// server_heavy_k64 model's dimension.
func foldLengths() []int {
	ns := make([]int, 0, 69)
	for n := 0; n <= 67; n++ {
		ns = append(ns, n)
	}
	return append(ns, 51978)
}

// firstFoldDiff returns the first index where a and b differ in any bit,
// NaN payloads included, or -1.
func firstFoldDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// nanPairs plants NaNs of different payloads at the same index of two
// vectors, one pair a lane of the block and one in the tail, so the test
// settles which operand's payload an add keeps.
func nanPairs(x, y []float64) {
	for _, i := range []int{0, 5, len(x) - 1} {
		if i >= 0 && i < len(x) {
			x[i] = math.Float64frombits(0x7FF8000000001234)
			y[i] = math.Float64frombits(0xFFF800000000ABCD)
		}
	}
}

func clone(x []float64) []float64 { return append([]float64(nil), x...) }

func TestAxpyMatchesTwin(t *testing.T) {
	rng := NewRNG(31)
	for _, n := range foldLengths() {
		for _, a := range []float64{1, 0.37, 0, -2.5} {
			dst, x := foldVector(rng, n), foldVector(rng, n)
			nanPairs(dst, x)
			want := clone(dst)
			axpyGo(want, x, a)
			got := clone(dst)
			Axpy(got, x, a)
			if i := firstFoldDiff(got, want); i >= 0 {
				t.Fatalf("Axpy n=%d a=%v: element %d = %x, twin %x", n, a, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

func TestAxpy4MatchesTwin(t *testing.T) {
	rng := NewRNG(32)
	for _, n := range foldLengths() {
		dst := foldVector(rng, n)
		x := [4][]float64{foldVector(rng, n), foldVector(rng, n), foldVector(rng, n), foldVector(rng, n)}
		nanPairs(dst, x[2])
		a := [4]float64{0.25, 1, -0.5, 0}
		want := clone(dst)
		axpy4Go(want, x[0], x[1], x[2], x[3], a[0], a[1], a[2], a[3])
		got := clone(dst)
		Axpy4(got, x[0], x[1], x[2], x[3], a[0], a[1], a[2], a[3])
		if i := firstFoldDiff(got, want); i >= 0 {
			t.Fatalf("Axpy4 n=%d: element %d = %x, twin %x", n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
		// Four vectors in one pass are four Axpy calls in order.
		seq := clone(dst)
		for k := range x {
			Axpy(seq, x[k], a[k])
		}
		if i := firstFoldDiff(got, seq); i >= 0 {
			t.Fatalf("Axpy4 n=%d: element %d differs from four Axpy calls", n, i)
		}
	}
}

// TestAxpyUnitIsPlainSum: a = 1 adds x exactly, so a plain sum may take
// the kernel.
func TestAxpyUnitIsPlainSum(t *testing.T) {
	rng := NewRNG(33)
	for _, n := range foldLengths() {
		dst, x := foldVector(rng, n), foldVector(rng, n)
		nanPairs(dst, x)
		want := clone(dst)
		for i := range want {
			want[i] += x[i]
		}
		got := clone(dst)
		Axpy(got, x, 1)
		if i := firstFoldDiff(got, want); i >= 0 {
			t.Fatalf("Axpy(1) n=%d: element %d = %x, plain sum %x", n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestLerpMatchesTwin holds Lerp to its twin out of place and with dst
// aliasing either operand (FedCross's propeller path lerps in place).
func TestLerpMatchesTwin(t *testing.T) {
	rng := NewRNG(34)
	for _, n := range foldLengths() {
		for _, ab := range [][2]float64{{0.99, 0.01}, {0.5, 0.5}, {1, 0}, {0, 1}} {
			a, b := ab[0], ab[1]
			v, w := foldVector(rng, n), foldVector(rng, n)
			nanPairs(v, w)
			want := make([]float64, n)
			lerpGo(want, v, w, a, b)
			got := make([]float64, n)
			Lerp(got, v, w, a, b)
			if i := firstFoldDiff(got, want); i >= 0 {
				t.Fatalf("Lerp n=%d a=%v: element %d = %x, twin %x", n, a, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
			dv := clone(v)
			Lerp(dv, dv, w, a, b)
			if i := firstFoldDiff(dv, want); i >= 0 {
				t.Fatalf("Lerp n=%d a=%v, dst aliasing v: element %d differs from the twin", n, a, i)
			}
			dw := clone(w)
			Lerp(dw, v, dw, a, b)
			if i := firstFoldDiff(dw, want); i >= 0 {
				t.Fatalf("Lerp n=%d a=%v, dst aliasing w: element %d differs from the twin", n, a, i)
			}
		}
	}
}

// TestAllFiniteMatchesTwin plants each special at every position of
// short vectors (every lane and every tail) and in a long one.
func TestAllFiniteMatchesTwin(t *testing.T) {
	rng := NewRNG(35)
	for _, n := range foldLengths() {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Normal(0, 1)
		}
		if !AllFinite(x) || !allFiniteGo(x) {
			t.Fatalf("n=%d: finite vector rejected", n)
		}
		positions := []int{0, n / 2, n - 1}
		if n <= 67 {
			positions = positions[:0]
			for i := 0; i < n; i++ {
				positions = append(positions, i)
			}
		}
		for _, i := range positions {
			if i < 0 {
				continue
			}
			for _, s := range foldSpecials {
				old := x[i]
				x[i] = s
				want := !math.IsNaN(s) && !math.IsInf(s, 0)
				if got, twin := AllFinite(x), allFiniteGo(x); got != want || twin != want {
					t.Fatalf("n=%d, %v at %d: AllFinite = %v, twin %v, want %v", n, s, i, got, twin, want)
				}
				x[i] = old
			}
		}
	}
}

func TestFoldKernelsRejectLengthMismatch(t *testing.T) {
	a, b := make([]float64, 4), make([]float64, 5)
	for name, f := range map[string]func(){
		"Axpy":  func() { Axpy(a, b, 1) },
		"Axpy4": func() { Axpy4(a, a, a, b, a, 1, 1, 1, 1) },
		"Lerp":  func() { Lerp(a, a, b, 0.5, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched lengths did not panic", name)
				}
			}()
			f()
		}()
	}
}
