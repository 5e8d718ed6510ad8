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

// convSpan returns the half-open range [lo, hi) of output positions o in
// [0, on) whose input tap i = o*stride + koff - pad lands inside [0, lim).
// The taps of that range are exactly the in-image ones, so callers can run
// the span branch-free (and as one contiguous copy when stride == 1).
func convSpan(on, stride, koff, pad, lim int) (lo, hi int) {
	if t := pad - koff; t > 0 {
		lo = (t + stride - 1) / stride
	}
	u := lim + pad - koff
	if u <= 0 {
		return 0, 0
	}
	hi = (u-1)/stride + 1
	if hi > on {
		hi = on
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Col2ImBatchTo is the whole-minibatch col2im: it scatters a fused
// (InC·KH·KW) × (B·OutH·OutW) gradient, sample b in the column block
// [b·spatial, (b+1)·spatial), back into per-sample image gradients,
// summing overlapping taps. dst is (B × InC·InH·InW) and is
// zeroed first. Each sample's scatter visits taps in the same
// (c, kh, kw, oy, ox) order as the per-sample Col2ImTo, so row b of dst
// is bit-identical to the unfused path. dst must not alias cols.
func Col2ImBatchTo(dst, cols *Tensor, g ConvGeom) *Tensor {
	feat := g.InC * g.InH * g.InW
	if dst.Rank() != 2 || dst.Shape[1] != feat {
		panic(fmt.Sprintf("tensor: Col2ImBatch destination shape %v, want [B %d]", dst.Shape, feat))
	}
	batch := dst.Shape[0]
	oh, ow := g.OutH(), g.OutW()
	spatial := oh * ow
	rows := g.InC * g.KH * g.KW
	if cols.Rank() != 2 || cols.Shape[0] != rows || cols.Shape[1] != batch*spatial {
		panic(fmt.Sprintf("tensor: Col2ImBatch input shape %v, want [%d %d]", cols.Shape, rows, batch*spatial))
	}
	dst.Zero()
	nc := batch * spatial
	for b := 0; b < batch; b++ {
		out := dst.Data[b*feat : (b+1)*feat]
		for c := 0; c < g.InC; c++ {
			chanOff := c * g.InH * g.InW
			for kh := 0; kh < g.KH; kh++ {
				oyLo, oyHi := convSpan(oh, g.Stride, kh, g.Pad, g.InH)
				for kw := 0; kw < g.KW; kw++ {
					oxLo, oxHi := convSpan(ow, g.Stride, kw, g.Pad, g.InW)
					row := (c*g.KH+kh)*g.KW + kw
					src := cols.Data[row*nc+b*spatial : row*nc+(b+1)*spatial]
					if g.Stride == 1 && oxLo == 0 && oxHi == ow && ow == g.InW && oyHi > oyLo {
						// Middle tap: source and destination runs stay
						// contiguous across oy — one fused accumulate.
						start := chanOff + (oyLo+kh-g.Pad)*g.InW
						orow := out[start : start+(oyHi-oyLo)*ow]
						for idx, v := range src[oyLo*ow : oyHi*ow] {
							orow[idx] += v
						}
						continue
					}
					for oy := oyLo; oy < oyHi; oy++ {
						iy := oy*g.Stride + kh - g.Pad
						rowOff := chanOff + iy*g.InW
						if g.Stride == 1 {
							ix0 := rowOff + oxLo + kw - g.Pad
							orow := out[ix0 : ix0+(oxHi-oxLo)]
							for idx, v := range src[oy*ow+oxLo : oy*ow+oxHi] {
								orow[idx] += v
							}
						} else {
							ix := rowOff + oxLo*g.Stride + kw - g.Pad
							for ox := oxLo; ox < oxHi; ox++ {
								out[ix] += src[oy*ow+ox]
								ix += g.Stride
							}
						}
					}
				}
			}
		}
	}
	return dst
}
