package tensor

import (
	"fmt"
	"math"
)

// Wire kernels: the three element passes of nn.Int8Codec, each taking the
// delta reference as an argument so the residual v−ref is formed in
// registers and never stored. ref == nil means no delta: the residual is v
// itself and nothing is added back.
//
// Like DotTile and the Winograd kernels these are platform-dispatched package
// functions, not Backend methods. In the quantise and dequantise kernels
// each lane performs the scalar loop's operations in the scalar loop's
// order, one rounding per operation and no fused multiply-add; the range
// kernel leans on minimum and maximum being exact in any order and
// settles the one thing order can change, the sign of a zero, on the
// scalar scan. So payload bytes and decoded bits are those of the Go
// twins (DeltaRangeGo, QuantDeltaGo, DequantAddGo) — what runs without
// AVX2, off amd64 and under purego, and what the tests hold the assembly
// to. The assembly takes whole blocks of wireLanes elements; the wrappers
// finish the remainder on the twin.
//
// Aliasing: the encode side only reads v and ref, the decode side only
// writes dst, and an encode finishes before its decode starts, so
// DequantAdd's dst may be the vector QuantDelta read. dst must never
// overlap ref.

// wireLanes is the block of the assembly kernels: two ymm registers of
// float64, eight payload bytes.
const wireLanes = 8

// DeltaRange returns the finite minimum and maximum of v[i]−ref[i], or
// (+Inf, −Inf) when no residual is finite. ±Inf and NaN residuals are
// screened through d−d, which is 0 for every finite d and NaN otherwise.
// The result is bit-identical to the ascending serial scan with strict
// compares, including which zero's sign an all-non-negative (or
// all-non-positive) residual reports — the first one seen.
func DeltaRange(v, ref []float64) (lo, hi float64) {
	checkWire("DeltaRange", len(v), len(v), ref)
	return deltaRange(v, ref)
}

// DeltaRangeGo is DeltaRange on the portable scalar kernel.
func DeltaRangeGo(v, ref []float64) (lo, hi float64) {
	checkWire("DeltaRange", len(v), len(v), ref)
	return deltaRangeGo(v, ref)
}

// QuantDelta writes dst[i] = clamp(round((v[i]−ref[i]−lo)/scale), 0, 255)
// with round-half-away-from-zero — math.Round's result, without calling
// it. For x = ((v−ref)−lo)/scale: anything not ≥ 0.5 (NaN, negatives and
// [0, 0.5), where Round gives ≤ 0) is 0; anything ≥ 254.5 is 255; and on
// [0.5, 254.5) the sum x+0.5 never rounds up across an integer, so
// truncating it is Round(x). Both masks come from compares on x itself:
// clamping x+0.5 instead would send x = 0.49999999999999994, whose sum
// rounds to 1.0, to 1. A scale that is not > 0 (an all-equal vector's 0)
// puts every point on lo.
func QuantDelta(dst []byte, v, ref []float64, lo, scale float64) {
	checkWire("QuantDelta", len(dst), len(v), ref)
	if !(scale > 0) {
		clear(dst)
		return
	}
	quantDelta(dst, v, ref, lo, scale)
}

// QuantDeltaGo is QuantDelta on the portable scalar kernel.
func QuantDeltaGo(dst []byte, v, ref []float64, lo, scale float64) {
	checkWire("QuantDelta", len(dst), len(v), ref)
	if !(scale > 0) {
		clear(dst)
		return
	}
	quantDeltaGo(dst, v, ref, lo, scale)
}

// DequantAdd writes dst[i] = (lo + scale·float64(q[i])) + ref[i]: one
// multiply, one add, then the reference add — the roundings of decoding
// the grid point and adding the reference back in a second pass.
func DequantAdd(dst []float64, q []byte, ref []float64, lo, scale float64) {
	checkWire("DequantAdd", len(q), len(dst), ref)
	dequantAdd(dst, q, ref, lo, scale)
}

// DequantAddGo is DequantAdd on the portable scalar kernel.
func DequantAddGo(dst []float64, q []byte, ref []float64, lo, scale float64) {
	checkWire("DequantAdd", len(q), len(dst), ref)
	dequantAddGo(dst, q, ref, lo, scale)
}

// checkWire is the only length check the kernels get: the payload's byte
// count against the vector's element count (the range scan has no
// payload and passes the vector's twice), and ref, when set, against
// both.
func checkWire(name string, payload, vec int, ref []float64) {
	if payload != vec || (ref != nil && len(ref) != vec) {
		panic(fmt.Sprintf("tensor: %s lengths differ: %d bytes, %d elements, reference %d", name, payload, vec, len(ref)))
	}
}

// The twins keep the reference test outside their loops: with ref == nil
// each is exactly the loop the codec ran before it took a reference.

func deltaRangeGo(v, ref []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	if ref == nil {
		for _, d := range v {
			lo, hi = widenFinite(lo, hi, d)
		}
		return lo, hi
	}
	for i, x := range v {
		lo, hi = widenFinite(lo, hi, x-ref[i])
	}
	return lo, hi
}

// widenFinite extends [lo, hi] to cover d unless d is ±Inf or NaN.
func widenFinite(lo, hi, d float64) (float64, float64) {
	if d-d != 0 {
		return lo, hi
	}
	if d < lo {
		lo = d
	}
	if d > hi {
		hi = d
	}
	return lo, hi
}

func quantDeltaGo(dst []byte, v, ref []float64, lo, scale float64) {
	if ref == nil {
		for i, d := range v {
			dst[i] = roundToByte((d - lo) / scale)
		}
		return
	}
	for i, x := range v {
		dst[i] = roundToByte(((x - ref[i]) - lo) / scale)
	}
}

// roundToByte is clamp(math.Round(x), 0, 255) by QuantDelta's rule.
func roundToByte(x float64) byte {
	switch {
	case !(x >= 0.5):
		return 0
	case x >= 254.5:
		return 255
	}
	return byte(int(x + 0.5))
}

func dequantAddGo(dst []float64, q []byte, ref []float64, lo, scale float64) {
	// The explicit conversion keeps the product a rounded float64 on
	// platforms where the compiler may otherwise fuse it into the add.
	if ref == nil {
		for i, b := range q {
			dst[i] = lo + float64(scale*float64(b))
		}
		return
	}
	for i, b := range q {
		dst[i] = (lo + float64(scale*float64(b))) + ref[i]
	}
}
