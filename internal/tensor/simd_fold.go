package tensor

import "fmt"

// Server fold kernels: the plain and weighted means behind every
// aggregation (Axpy, Axpy4), FedCross's cross-aggregation α·v + (1−α)·w
// (Lerp), and the non-finite screen in front of the aggregation rules
// (AllFinite). They are platform-dispatched like MomentumStep: every
// product is rounded before its add (no fused multiply-add) and the
// accumulator is the first source of every add, so the AVX2 lanes
// reproduce the scalar twins bit for bit, NaN payloads included. The
// twins are what runs without AVX2, off amd64 and under purego, and what
// the tests hold the assembly to.

// lerpLanes and finiteLanes are the blocks the Lerp and AllFinite
// assembly take, two and four ymm registers of float64. The wrappers
// finish the remainder on the twins.
const (
	lerpLanes   = 8
	finiteLanes = 16
)

// Axpy computes dst[i] += a·x[i]. The product with a = 1 is exact, so a
// plain sum takes the same kernel. x must have dst's length.
func Axpy(dst, x []float64, a float64) {
	checkFold("Axpy", len(dst), len(x))
	axpy(dst, x, a)
}

// Axpy4 computes dst[i] += a0·x0[i], then += a1·x1[i], += a2·x2[i] and
// += a3·x3[i]: four Axpy calls in that order, in one pass over dst.
func Axpy4(dst, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64) {
	checkFold("Axpy4", len(dst), len(x0), len(x1), len(x2), len(x3))
	axpy4(dst, x0, x1, x2, x3, a0, a1, a2, a3)
}

// Lerp computes dst[i] = a·v[i] + b·w[i]. dst may alias v or w.
func Lerp(dst, v, w []float64, a, b float64) {
	checkFold("Lerp", len(dst), len(v), len(w))
	lerp(dst, v, w, a, b)
}

// AllFinite reports whether no element of v is NaN or ±Inf.
func AllFinite(v []float64) bool { return allFinite(v) }

// checkFold is the only length check the fold kernels get.
func checkFold(op string, dst int, xs ...int) {
	for _, n := range xs {
		if n != dst {
			panic(fmt.Sprintf("tensor: %s lengths differ: destination %d, operand %d", op, dst, n))
		}
	}
}

// The twins keep each product a rounded float64 with an explicit
// conversion, so a build that may fuse (GOAMD64=v3, arm64) cannot
// contract it into the add. The assembly's adds keep the accumulator (in
// Lerp, a·v) as first source — when both operands are NaN its payload
// survives, as in a plain dst[i] += x[i] — but Go's register allocator
// may make either operand of a commutative add the destination. So the
// twins subtract (−a)·x instead of adding a·x: the negated product is the
// exact mirror image of a·x (a NaN x keeps its payload and sign),
// y − (−p) is y + p to the bit, and a subtract cannot swap its operands.

func axpyGo(dst, x []float64, a float64) {
	x, na := x[:len(dst)], -a
	for i := range dst {
		dst[i] -= float64(na * x[i])
	}
}

func axpy4Go(dst, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64) {
	n := len(dst)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	n0, n1, n2, n3 := -a0, -a1, -a2, -a3
	for i := range dst {
		d := dst[i] - float64(n0*x0[i])
		d -= float64(n1 * x1[i])
		d -= float64(n2 * x2[i])
		dst[i] = d - float64(n3*x3[i])
	}
}

func lerpGo(dst, v, w []float64, a, b float64) {
	v, w, nb := v[:len(dst)], w[:len(dst)], -b
	for i := range dst {
		dst[i] = float64(a*v[i]) - float64(nb*w[i])
	}
}

// allFiniteGo uses the assembly's test: x − x is 0 for every finite x
// and NaN otherwise.
func allFiniteGo(v []float64) bool {
	for _, x := range v {
		if x-x != 0 {
			return false
		}
	}
	return true
}
