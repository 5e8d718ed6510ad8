package tensor

import "fmt"

// Destination-passing convention: every *To kernel writes its result into
// a caller-supplied dst tensor whose shape must already match, and returns
// dst. The elementwise kernels (AddTo, ApplyTo) tolerate dst aliasing any
// input; the matrix kernels (MatMulTo and friends) require dst to be
// disjoint from both operands — see docs/ARCHITECTURE.md "Buffer
// ownership" for the full rules.

// AddTo computes dst = a + b elementwise. dst may alias a or b.
func AddTo(dst, a, b *Tensor) *Tensor {
	checkSame("AddTo", a, b)
	checkSame("AddTo(dst)", dst, a)
	active.Add(dst.Data, a.Data, b.Data)
	return dst
}

// AddInPlace accumulates src into dst: dst += src.
func AddInPlace(dst, src *Tensor) {
	checkSame("AddInPlace", dst, src)
	for i := range dst.Data {
		dst.Data[i] += src.Data[i]
	}
}

// ScaleInPlace multiplies every element of t by s.
func ScaleInPlace(t *Tensor, s float64) {
	for i := range t.Data {
		t.Data[i] *= s
	}
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
// form — so results are bit-identical run to run.
// There is deliberately no zero-skip on operand elements: 0·NaN and 0·Inf
// must produce NaN, not 0 (IEEE-754), so corrupted operands propagate
// instead of being masked.

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

// MatMulTransBTo computes dst = a·bᵀ with a m×k and b n×k. dst must be
// m×n and must not alias either operand.
func MatMulTransBTo(dst, a, b *Tensor) *Tensor {
	return matmulTransBTo(dst, a, b, false)
}

func matmulTransBTo(dst, a, b *Tensor, acc bool) *Tensor {
	m, k, n := matmulDims("MatMulTransB", a, b, false, true)
	checkDst("MatMulTransB", dst, a, b, m, n)
	active.Gemm(dst.Data, a.Data, b.Data, m, k, n, false, true, acc)
	return dst
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

func checkSame(op string, a, b *Tensor) {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}
