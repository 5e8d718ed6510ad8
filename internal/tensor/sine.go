package tensor

import (
	"fmt"
	"math"
)

// VisionSin returns math.Sin(x) bit for bit, without math.Sin's
// data-dependent branches on |x| < 2^29. The vision corpus's arguments
// 2v + phase land in random octants, and there math.Sin's octant and
// sign branches mispredict about every other call: ≈ 35 ns a call
// against ≈ 9 ns on sorted arguments.
//
// It is Go's own math.sin (math/sin.go, the Cephes sin), the version
// this module is built with: the same Cody–Waite reduction by π/4 in
// three parts and the same two polynomials, written in the stdlib's
// expression forms so that the compiler fuses (arm64) or leaves unfused
// exactly the operations it does there. Both polynomials are evaluated,
// and the octant picks one and the sign by integer masks on the float
// bits. ±0, NaN, ±Inf and |x| ≥ 2^29 (Payne–Hanek reduction) go to
// math.Sin itself. On a platform where math.Sin is assembly (s390x) the
// two need not agree. TestVisionSineMatchesMathSin (internal/data) holds
// the equality; a Go upgrade that touches math/sin.go must be re-checked
// against it under GOAMD64=v1 and v3 (docs/ARCHITECTURE.md, "The vision
// corpus").
func VisionSin(x float64) float64 {
	b := math.Float64bits(x)
	ax := b &^ signBit
	if ax-1 >= reduceBits-1 { // ax == 0 wraps round to the top
		return math.Sin(x)
	}
	a := math.Float64frombits(ax)
	j := int64(a * (4 / math.Pi)) // integer part of a/(π/4)
	j += j & 1                    // map zeros to origin
	y := float64(j)
	z := ((a - y*pi4a) - y*pi4b) - y*pi4c

	zz := z * z
	c := 1.0 - 0.5*zz + zz*zz*((((((cosCoef[0]*zz)+cosCoef[1])*zz+cosCoef[2])*zz+cosCoef[3])*zz+cosCoef[4])*zz+cosCoef[5])
	s := z + z*zz*((((((sinCoef[0]*zz)+sinCoef[1])*zz+sinCoef[2])*zz+sinCoef[3])*zz+sinCoef[4])*zz+sinCoef[5])

	// j is even: bit 2 is the reflection in the x axis (math.sin's
	// j > 3), bit 1 the octants where the cosine polynomial applies.
	useCos := -uint64(j >> 1 & 1)
	r := math.Float64bits(s)&^useCos | math.Float64bits(c)&useCos
	return math.Float64frombits(r ^ (b^uint64(j)<<61)&signBit)
}

const (
	pi4a = 7.85398125648498535156e-1  // 0x3fe921fb40000000, Pi/4 split into three parts
	pi4b = 3.77489470793079817668e-8  // 0x3e64442d00000000,
	pi4c = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,

	signBit = 1 << 63
	// reduceBits is math's reduceThreshold, 2^29, as float bits.
	reduceBits = (1023 + 29) << 52
)

// sinCoef and cosCoef are math's _sin and _cos: package
// variables there, so package variables here, loaded the same way.
var sinCoef = [...]float64{
	1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
	-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
	2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
	-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
	8.33333333332211858878e-3,  // 0x3f8111111110f7d0
	-1.66666666666666307295e-1, // 0xbfc5555555555548
}

var cosCoef = [...]float64{
	-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
	2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
	-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
	2.48015872888517045348e-5,   // 0x3efa01a019c844f5
	-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
	4.16666666666665929218e-2,   // 0x3fa555555555554b
}

// VisionFinish is the vision corpus's finish pass over one row:
// dst[i] = v[i] + 0.4·VisionSin(2·v[i] + phase[i]). dst and v are the
// same slice (the finish in place) or do not overlap, and the three have
// one length.
//
// Where math.Sin is unfused (amd64 below GOAMD64=v3, without purego) and
// the CPU has AVX2, whole blocks of finishLanes run on an assembly kernel
// that keeps VisionSin's operation order, one rounding each, so it
// returns the twin's bits; a block holding an argument VisionSin hands to
// math.Sin, and the remainder, run on the twin. A build that may contract
// x·y + z into one fused multiply-add (GOAMD64=v3, arm64) gets the twin
// alone: its VisionSin, like math.Sin, follows the compiler there.
func VisionFinish(dst, v, phase []float64) {
	checkFinish(len(dst), len(v), len(phase))
	visionFinish(dst, v, phase)
}

// VisionFinishGo is VisionFinish on the portable scalar loop.
func VisionFinishGo(dst, v, phase []float64) {
	checkFinish(len(dst), len(v), len(phase))
	visionFinishGo(dst, v, phase)
}

// finishLanes is the block the finish kernel takes: one ymm register.
const finishLanes = 4

func checkFinish(dst, v, phase int) {
	if v != dst || phase != dst {
		panic(fmt.Sprintf("tensor: VisionFinish lengths differ: %d dst, %d v, %d phase", dst, v, phase))
	}
}

// visionFinishGo is the finish's expression as the corpus has always
// written it, so each build fuses it, or not, as it fuses VisionSin.
func visionFinishGo(dst, v, phase []float64) {
	v, phase = v[:len(dst)], phase[:len(dst)]
	for i, x := range v {
		dst[i] = x + 0.4*VisionSin(2*x+phase[i])
	}
}
