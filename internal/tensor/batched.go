package tensor

import "fmt"

// Batched matrix kernels: G independent multiplies striding over one
// contiguous (G × m × n) destination buffer, dispatched to the backend as
// a single GemmBatch call so an accelerated backend can fuse the group
// loop. Group g of the result is bit-identical to a standalone MatMul*
// call on group g's slabs — the contract the batched nn layers rely on to
// keep per-client training histories unchanged.
//
// Operands are rank-3 (G × rows × cols); an a operand passed rank-2 is
// broadcast across every group (the shared-weight form used when all
// groups multiply by the same matrix). dst must not alias either operand.

// BatchMatMulTo computes dst[g] = a[g]·b[g]: a (G×m×k) or broadcast
// (m×k), b (G×k×n), dst (G×m×n).
func BatchMatMulTo(dst, a, b *Tensor) *Tensor {
	return batchMatMul(dst, a, b, false, false, false)
}

// BatchMatMulAcc computes dst[g] += a[g]·b[g].
func BatchMatMulAcc(dst, a, b *Tensor) *Tensor {
	return batchMatMul(dst, a, b, false, false, true)
}

// BatchMatMulTransATo computes dst[g] = a[g]ᵀ·b[g]: a (G×m×k) holding
// each group's k×m logical operand (or broadcast m×k), b (G×m×n),
// dst (G×k×n).
func BatchMatMulTransATo(dst, a, b *Tensor) *Tensor {
	return batchMatMul(dst, a, b, true, false, false)
}

// BatchMatMulTransAAcc computes dst[g] += a[g]ᵀ·b[g].
func BatchMatMulTransAAcc(dst, a, b *Tensor) *Tensor {
	return batchMatMul(dst, a, b, true, false, true)
}

// BatchMatMulTransBTo computes dst[g] = a[g]·b[g]ᵀ: a (G×m×k) or
// broadcast (m×k), b (G×n×k), dst (G×m×n).
func BatchMatMulTransBTo(dst, a, b *Tensor) *Tensor {
	return batchMatMul(dst, a, b, false, true, false)
}

// BatchMatMulTransBAcc computes dst[g] += a[g]·b[g]ᵀ.
func BatchMatMulTransBAcc(dst, a, b *Tensor) *Tensor {
	return batchMatMul(dst, a, b, false, true, true)
}

func batchMatMul(dst, a, b *Tensor, transA, transB, acc bool) *Tensor {
	if b.Rank() != 3 || dst.Rank() != 3 {
		panic(fmt.Sprintf("tensor: BatchMatMul wants rank-3 b and dst, got b %v dst %v", b.Shape, dst.Shape))
	}
	groups := b.Shape[0]
	if dst.Shape[0] != groups {
		panic(fmt.Sprintf("tensor: BatchMatMul group mismatch dst %v vs b %v", dst.Shape, b.Shape))
	}
	var am, ak, strideA int
	switch a.Rank() {
	case 2:
		am, ak, strideA = a.Shape[0], a.Shape[1], 0 // broadcast across groups
	case 3:
		if a.Shape[0] != groups {
			panic(fmt.Sprintf("tensor: BatchMatMul group mismatch a %v vs b %v", a.Shape, b.Shape))
		}
		am, ak = a.Shape[1], a.Shape[2]
		strideA = am * ak
	default:
		panic(fmt.Sprintf("tensor: BatchMatMul wants rank-2 (broadcast) or rank-3 a, got %v", a.Shape))
	}
	// Map the per-group shapes onto the backend's (m, k, n) with dst m×n
	// and reduction k, mirroring matmulDims for the single-matmul forms.
	var m, k, n int
	switch {
	case transA && transB:
		panic("tensor: BatchMatMul transA && transB unsupported")
	case transA:
		// aᵀ·b: a slab is m×k holding the logical k×m operand; b is m×n.
		if am != b.Shape[1] {
			panic(fmt.Sprintf("tensor: BatchMatMulTransA outer dimension mismatch a %v x b %v", a.Shape, b.Shape))
		}
		m, k, n = ak, am, b.Shape[2]
	case transB:
		// a·bᵀ: b slab is n×k.
		if ak != b.Shape[2] {
			panic(fmt.Sprintf("tensor: BatchMatMulTransB inner dimension mismatch a %v x b %v", a.Shape, b.Shape))
		}
		m, k, n = am, ak, b.Shape[1]
	default:
		if ak != b.Shape[1] {
			panic(fmt.Sprintf("tensor: BatchMatMul inner dimension mismatch a %v x b %v", a.Shape, b.Shape))
		}
		m, k, n = am, ak, b.Shape[2]
	}
	if dst.Shape[1] != m || dst.Shape[2] != n {
		panic(fmt.Sprintf("tensor: BatchMatMul destination shape %v, want [%d %d %d]", dst.Shape, groups, m, n))
	}
	if len(dst.Data) > 0 {
		if len(a.Data) > 0 && &dst.Data[0] == &a.Data[0] {
			panic("tensor: BatchMatMul destination aliases operand a")
		}
		if len(b.Data) > 0 && &dst.Data[0] == &b.Data[0] {
			panic("tensor: BatchMatMul destination aliases operand b")
		}
	}
	strideB := b.Shape[1] * b.Shape[2]
	// (m, k) above already follow the backend convention — m is the dst
	// slab's row count even in the transA case.
	active.GemmBatch(dst.Data, a.Data, b.Data, groups, m, k, n, m*n, strideA, strideB, transA, transB, acc)
	return dst
}
