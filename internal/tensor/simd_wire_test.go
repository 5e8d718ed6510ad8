package tensor

import (
	"math"
	"testing"
)

// wireSpecials are the values a wire kernel must not mishandle: what the
// finite screen drops, both zeros, denormals, the ends of the float64
// range, and the x just below 0.5 whose x+0.5 rounds up to 1.0.
var wireSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -1e-310,
	math.MaxFloat64, -math.MaxFloat64, 0.49999999999999994, 0.5, 254.5, 255, 1e300, -1e300,
}

// wireCase builds an n-element vector and reference for one trial: a
// random body with specials scattered through it, or one of the shapes
// that exercise the zero-sign rescan and the degenerate grids.
func wireCase(rng *RNG, n, kind int) (v, ref []float64) {
	v, ref = make([]float64, n), make([]float64, n)
	for i := range v {
		ref[i] = rng.Normal(0, 1)
		switch kind {
		case 0: // a model delta: small residual around a reference
			v[i] = ref[i] + 0.01*rng.Normal(0, 1)
		case 1: // specials in both vectors
			v[i] = rng.Normal(0, 3)
			if rng.Float64() < 0.2 {
				v[i] = wireSpecials[rng.Intn(len(wireSpecials))]
			}
			if rng.Float64() < 0.1 {
				ref[i] = wireSpecials[rng.Intn(len(wireSpecials))]
			}
		case 2: // non-negative residual with exact zeros of both signs
			ref[i] = 0
			switch rng.Intn(4) {
			case 0:
				v[i] = math.Copysign(0, -1)
			case 1:
				v[i] = 0
			default:
				v[i] = rng.Float64()
			}
		case 3: // non-positive residual, zeros formed by cancellation
			v[i] = ref[i]
			if rng.Float64() < 0.5 {
				v[i] = ref[i] - math.Abs(ref[i])
			}
		case 4: // all equal
			v[i], ref[i] = 1.25, 0.25
		case 5: // grid [0, 255] with scale 1: x is the value, on and beside a k/2
			k := rng.Intn(511)
			if rng.Intn(2) == 0 { // the points where the masks change
				k = []int{0, 1, 2, 3, 507, 508, 509, 510}[rng.Intn(8)]
			}
			v[i], ref[i] = float64(k)/2, 0
			for ulps := rng.Intn(5) - 2; ulps != 0 && v[i] > 0 && v[i] < 255; {
				if ulps > 0 {
					v[i], ulps = math.Nextafter(v[i], 256), ulps-1
				} else {
					v[i], ulps = math.Nextafter(v[i], -1), ulps+1
				}
			}
			if i < 2 {
				v[i] = 255 * float64(i)
			}
		}
	}
	return v, ref
}

// TestWireKernelsMatchSeparatePasses holds the dispatched kernels (the
// AVX2 assembly where the CPU has it) and their scalar twins to the
// passes written out here: the residual stored, an ascending strict
// min/max over its finite entries, math.Round onto the grid, and the
// decode followed by a separate reference add.
func TestWireKernelsMatchSeparatePasses(t *testing.T) {
	type kernels struct {
		name    string
		rng     func(v, ref []float64) (float64, float64)
		quant   func(dst []byte, v, ref []float64, lo, scale float64)
		dequant func(dst []float64, q []byte, ref []float64, lo, scale float64)
	}
	rng := NewRNG(77)
	for _, k := range []kernels{
		{"dispatched", DeltaRange, QuantDelta, DequantAdd},
		{"scalar twin", DeltaRangeGo, QuantDeltaGo, DequantAddGo},
	} {
		for n := 0; n <= 70; n++ {
			for kind := 0; kind < 6; kind++ {
				for _, withRef := range []bool{false, true} {
					v, ref := wireCase(rng, n, kind)
					res := append([]float64(nil), v...)
					if withRef {
						for i := range res {
							res[i] = v[i] - ref[i]
						}
					} else {
						ref = nil
					}

					wantLo, wantHi := math.Inf(1), math.Inf(-1)
					for _, d := range res {
						if math.IsInf(d, 0) || math.IsNaN(d) {
							continue
						}
						if d < wantLo {
							wantLo = d
						}
						if d > wantHi {
							wantHi = d
						}
					}
					lo, hi := k.rng(v, ref)
					if math.Float64bits(lo) != math.Float64bits(wantLo) || math.Float64bits(hi) != math.Float64bits(wantHi) {
						t.Fatalf("%s n=%d kind=%d ref=%v: range [%v, %v], serial scan [%v, %v]", k.name, n, kind, withRef, lo, hi, wantLo, wantHi)
					}
					if lo > hi {
						lo, hi = -1, 1
					}

					scale := (hi - lo) / 255
					if math.IsInf(scale, 0) {
						lo, scale = -math.MaxFloat64/4, math.MaxFloat64/2/255
					}
					q, wantQ := make([]byte, n), make([]byte, n)
					for i, d := range res {
						r := 0.0
						if scale > 0 {
							r = math.Round((d - lo) / scale)
						}
						if !(r >= 0) {
							r = 0
						} else if r > 255 {
							r = 255
						}
						wantQ[i] = byte(r)
					}
					k.quant(q, v, ref, lo, scale)
					for i := range q {
						if q[i] != wantQ[i] {
							t.Fatalf("%s n=%d kind=%d ref=%v: byte %d (residual %v, lo %v, scale %v) = %d, math.Round gives %d",
								k.name, n, kind, withRef, i, res[i], lo, scale, q[i], wantQ[i])
						}
					}

					dst, want := make([]float64, n), make([]float64, n)
					for i, b := range wantQ {
						want[i] = lo + scale*float64(b)
					}
					if withRef {
						for i := range want {
							want[i] += ref[i]
						}
					}
					k.dequant(dst, q, ref, lo, scale)
					for i := range dst {
						if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s n=%d kind=%d ref=%v: element %d = %v, decode then add gives %v", k.name, n, kind, withRef, i, dst[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestWireKernelsRejectUncheckedLengths: the wrappers, not the assembly,
// own the bounds.
func TestWireKernelsRejectUncheckedLengths(t *testing.T) {
	v8, v9, q8 := make([]float64, 8), make([]float64, 9), make([]byte, 8)
	for name, call := range map[string]func(){
		"range ref short":   func() { DeltaRange(v9, v8) },
		"quant dst short":   func() { QuantDelta(q8, v9, nil, 0, 1) },
		"quant ref long":    func() { QuantDeltaGo(q8, v8, v9, 0, 1) },
		"dequant dst long":  func() { DequantAdd(v9, q8, nil, 0, 1) },
		"dequant ref short": func() { DequantAddGo(v9, make([]byte, 9), v8, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected a panic", name)
				}
			}()
			call()
		}()
	}
}
