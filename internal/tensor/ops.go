package tensor

import (
	"fmt"
	"math"
)

// Destination-passing convention: every *To kernel writes its result into
// a caller-supplied dst tensor whose shape must already match, and returns
// dst. The allocating forms (Add, MatMul, ...) are thin wrappers that
// allocate a fresh dst. Elementwise kernels (AddTo, SubTo, MulTo, ScaleTo,
// LerpTo, ApplyTo) tolerate dst aliasing any input; the matrix kernels
// (MatMulTo and friends) require dst to be disjoint from both operands —
// see docs/ARCHITECTURE.md "Buffer ownership" for the full rules.

// Add returns a + b elementwise. Shapes must match.
func Add(a, b *Tensor) *Tensor {
	return AddTo(Zeros(a.Shape...), a, b)
}

// AddTo computes dst = a + b elementwise. dst may alias a or b.
func AddTo(dst, a, b *Tensor) *Tensor {
	checkSame("AddTo", a, b)
	checkSame("AddTo(dst)", dst, a)
	active.Add(dst.Data, a.Data, b.Data)
	return dst
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	return SubTo(Zeros(a.Shape...), a, b)
}

// SubTo computes dst = a - b elementwise. dst may alias a or b.
func SubTo(dst, a, b *Tensor) *Tensor {
	checkSame("SubTo", a, b)
	checkSame("SubTo(dst)", dst, a)
	ad, bd, dd := a.Data, b.Data, dst.Data
	for i := range dd {
		dd[i] = ad[i] - bd[i]
	}
	return dst
}

// Mul returns the elementwise (Hadamard) product a * b.
func Mul(a, b *Tensor) *Tensor {
	return MulTo(Zeros(a.Shape...), a, b)
}

// MulTo computes dst = a * b elementwise. dst may alias a or b.
func MulTo(dst, a, b *Tensor) *Tensor {
	checkSame("MulTo", a, b)
	checkSame("MulTo(dst)", dst, a)
	ad, bd, dd := a.Data, b.Data, dst.Data
	for i := range dd {
		dd[i] = ad[i] * bd[i]
	}
	return dst
}

// Scale returns s * a.
func Scale(a *Tensor, s float64) *Tensor {
	return ScaleTo(Zeros(a.Shape...), a, s)
}

// ScaleTo computes dst = s * a elementwise. dst may alias a.
func ScaleTo(dst, a *Tensor, s float64) *Tensor {
	checkSame("ScaleTo(dst)", dst, a)
	active.Scale(dst.Data, a.Data, s)
	return dst
}

// AddInPlace accumulates src into dst: dst += src.
func AddInPlace(dst, src *Tensor) {
	checkSame("AddInPlace", dst, src)
	for i := range dst.Data {
		dst.Data[i] += src.Data[i]
	}
}

// AXPY computes dst += alpha * src, the BLAS-style accumulate used by SGD.
func AXPY(alpha float64, src, dst *Tensor) {
	checkSame("AXPY", dst, src)
	active.Axpy(alpha, src.Data, dst.Data)
}

// ScaleInPlace multiplies every element of t by s.
func ScaleInPlace(t *Tensor, s float64) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// Lerp returns alpha*a + (1-alpha)*b, the convex combination used by
// cross-aggregation.
func Lerp(a, b *Tensor, alpha float64) *Tensor {
	return LerpTo(Zeros(a.Shape...), a, b, alpha)
}

// LerpTo computes dst = alpha*a + (1-alpha)*b. dst may alias a or b.
func LerpTo(dst, a, b *Tensor, alpha float64) *Tensor {
	checkSame("LerpTo", a, b)
	checkSame("LerpTo(dst)", dst, a)
	beta := 1 - alpha
	ad, bd, dd := a.Data, b.Data, dst.Data
	for i := range dd {
		dd[i] = alpha*ad[i] + beta*bd[i]
	}
	return dst
}

// Dot returns the inner product of a and b viewed as flat vectors.
func Dot(a, b *Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a.Data), len(b.Data)))
	}
	s := 0.0
	for i := range a.Data {
		s += a.Data[i] * b.Data[i]
	}
	return s
}

// Norm returns the L2 norm of t viewed as a flat vector.
func Norm(t *Tensor) float64 {
	return math.Sqrt(Dot(t, t))
}

// Sum returns the sum of all elements.
func Sum(t *Tensor) float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func Mean(t *Tensor) float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return Sum(t) / float64(len(t.Data))
}

// ArgMax returns the index of the first maximal element of a flat tensor,
// ignoring NaN entries: a NaN can never win, so corrupted logits count as
// a wrong prediction rather than silently as class 0. It returns -1 for an
// empty tensor or when every element is NaN.
func ArgMax(t *Tensor) int {
	best := -1
	bestV := 0.0
	for i, v := range t.Data {
		if math.IsNaN(v) {
			continue
		}
		if best == -1 || v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Apply returns a new tensor with f applied to every element.
func Apply(t *Tensor, f func(float64) float64) *Tensor {
	return ApplyTo(Zeros(t.Shape...), t, f)
}

// ApplyTo computes dst[i] = f(a[i]). dst may alias a.
func ApplyTo(dst, a *Tensor, f func(float64) float64) *Tensor {
	checkSame("ApplyTo(dst)", dst, a)
	ad, dd := a.Data, dst.Data
	for i := range dd {
		dd[i] = f(ad[i])
	}
	return dst
}

// The matrix kernels validate shapes here and dispatch to the process-wide
// Backend (see backend.go). Every output element's addends fold in a fixed
// order under the default GoBackend — ascending reduction index for the
// plain and transposed-A forms, fixed 4-way partials for the transposed-B
// form — so results are bit-identical run to run and at any worker count.
// There is deliberately no zero-skip on operand elements: 0·NaN and 0·Inf
// must produce NaN, not 0 (IEEE-754), so corrupted operands propagate
// instead of being masked.

// MatMul multiplies a (m×k) by b (k×n) producing an m×n tensor. Both
// inputs must be rank-2.
func MatMul(a, b *Tensor) *Tensor {
	m, _, n := matmulDims("MatMul", a, b, false, false)
	return matmulTo(Zeros(m, n), a, b, false)
}

// MatMulTo computes dst = a·b where a is m×k and b is k×n. dst must be
// m×n and must not alias either operand.
func MatMulTo(dst, a, b *Tensor) *Tensor {
	return matmulTo(dst, a, b, false)
}

// MatMulAcc computes dst += a·b. dst must be m×n and must not alias
// either operand.
func MatMulAcc(dst, a, b *Tensor) *Tensor {
	return matmulTo(dst, a, b, true)
}

func matmulTo(dst, a, b *Tensor, acc bool) *Tensor {
	m, k, n := matmulDims("MatMul", a, b, false, false)
	checkDst("MatMul", dst, a, b, m, n)
	active.Gemm(dst.Data, a.Data, b.Data, m, k, n, false, false, acc)
	return dst
}

// MatMulTransB multiplies a (m×k) by bᵀ where b is (n×k), producing m×n.
// This avoids materialising the transpose in backward passes.
func MatMulTransB(a, b *Tensor) *Tensor {
	m, _, n := matmulDims("MatMulTransB", a, b, false, true)
	return matmulTransBTo(Zeros(m, n), a, b, false)
}

// MatMulTransBTo computes dst = a·bᵀ with a m×k and b n×k. dst must be
// m×n and must not alias either operand.
func MatMulTransBTo(dst, a, b *Tensor) *Tensor {
	return matmulTransBTo(dst, a, b, false)
}

// MatMulTransBAcc computes dst += a·bᵀ. dst must be m×n and must not
// alias either operand.
func MatMulTransBAcc(dst, a, b *Tensor) *Tensor {
	return matmulTransBTo(dst, a, b, true)
}

func matmulTransBTo(dst, a, b *Tensor, acc bool) *Tensor {
	m, k, n := matmulDims("MatMulTransB", a, b, false, true)
	checkDst("MatMulTransB", dst, a, b, m, n)
	active.Gemm(dst.Data, a.Data, b.Data, m, k, n, false, true, acc)
	return dst
}

// MatMulTransA multiplies aᵀ (k×m, stored as m×k) by b (m×n), producing k×n.
func MatMulTransA(a, b *Tensor) *Tensor {
	k, _, n := matmulDims("MatMulTransA", a, b, true, false)
	return matmulTransATo(Zeros(k, n), a, b, false)
}

// MatMulTransATo computes dst = aᵀ·b with a m×k and b m×n. dst must be
// k×n and must not alias either operand.
func MatMulTransATo(dst, a, b *Tensor) *Tensor {
	return matmulTransATo(dst, a, b, false)
}

// MatMulTransAAcc computes dst += aᵀ·b. dst must be k×n and must not
// alias either operand.
func MatMulTransAAcc(dst, a, b *Tensor) *Tensor {
	return matmulTransATo(dst, a, b, true)
}

func matmulTransATo(dst, a, b *Tensor, acc bool) *Tensor {
	k, m, n := matmulDims("MatMulTransA", a, b, true, false)
	checkDst("MatMulTransA", dst, a, b, k, n)
	// Backend convention: dst is m×n with reduction k, a stored k×m. Here
	// the tensor-level names have a m×k storing the logical k×m operand, so
	// the backend's (m, k) are this wrapper's (k, m).
	active.Gemm(dst.Data, a.Data, b.Data, k, m, n, true, false, acc)
	return dst
}

// AddRowTo computes dst[r][j] = x[r][j] + row[j] — the broadcast bias add
// over a rank-2 batch. dst may alias x; row must have x's column count.
func AddRowTo(dst, x, row *Tensor) *Tensor {
	checkSame("AddRowTo(dst)", dst, x)
	if x.Rank() != 2 || row.Len() != x.Shape[1] {
		panic(fmt.Sprintf("tensor: AddRowTo wants rank-2 x with %d-element row, got %v row %v", x.Shape[1], x.Shape, row.Shape))
	}
	active.AddRow(dst.Data, x.Data, row.Data, x.Shape[0], x.Shape[1])
	return dst
}

// ColSumAcc computes dst[j] += Σ_r x[r][j] over a rank-2 x, folding rows
// in ascending order — the bias-gradient accumulate.
func ColSumAcc(dst, x *Tensor) *Tensor {
	if x.Rank() != 2 || dst.Len() != x.Shape[1] {
		panic(fmt.Sprintf("tensor: ColSumAcc wants rank-2 x with %d-element dst, got %v dst %v", x.Shape[1], x.Shape, dst.Shape))
	}
	active.ColSumAcc(dst.Data, x.Data, x.Shape[0], x.Shape[1])
	return dst
}

// matmulDims validates ranks and inner dimensions and returns the output
// rows, the reduction length, and the output columns. transA/transB state
// which operand is consumed transposed.
func matmulDims(op string, a, b *Tensor, transA, transB bool) (rows, red, cols int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s requires rank-2 operands, got %v x %v", op, a.Shape, b.Shape))
	}
	switch {
	case transA:
		// aᵀ·b: a is m×k holding the k×m logical operand.
		if a.Shape[0] != b.Shape[0] {
			panic(fmt.Sprintf("tensor: %s outer dimension mismatch %v x %v", op, a.Shape, b.Shape))
		}
		return a.Shape[1], a.Shape[0], b.Shape[1]
	case transB:
		// a·bᵀ: b is n×k.
		if a.Shape[1] != b.Shape[1] {
			panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v x %v", op, a.Shape, b.Shape))
		}
		return a.Shape[0], a.Shape[1], b.Shape[0]
	default:
		if a.Shape[1] != b.Shape[0] {
			panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v x %v", op, a.Shape, b.Shape))
		}
		return a.Shape[0], a.Shape[1], b.Shape[1]
	}
}

// checkDst validates the destination's shape and rejects the common
// aliasing mistake of passing an operand as dst. (Partial overlaps via
// sub-slicing are the caller's responsibility — see the ownership rules.)
func checkDst(op string, dst, a, b *Tensor, rows, cols int) {
	if dst.Rank() != 2 || dst.Shape[0] != rows || dst.Shape[1] != cols {
		panic(fmt.Sprintf("tensor: %s destination shape %v, want [%d %d]", op, dst.Shape, rows, cols))
	}
	if len(dst.Data) > 0 {
		if len(a.Data) > 0 && &dst.Data[0] == &a.Data[0] {
			panic(fmt.Sprintf("tensor: %s destination aliases operand a", op))
		}
		if len(b.Data) > 0 && &dst.Data[0] == &b.Data[0] {
			panic(fmt.Sprintf("tensor: %s destination aliases operand b", op))
		}
	}
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose requires rank-2, got %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	out := Zeros(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}

func checkSame(op string, a, b *Tensor) {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}
