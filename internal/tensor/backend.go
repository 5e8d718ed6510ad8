package tensor

// The kernel backend seam. Every matrix-multiply and hot elementwise
// entry point in this package validates shapes and then dispatches to the
// process-wide Backend, so an accelerated implementation (SIMD, assembly,
// an offload library) can be slotted in with SetBackend without touching
// the nn layers that call the tensor API.
//
// Backend methods operate on raw row-major float64 slices plus explicit
// dimensions — deliberately free of the Tensor type — so an alternative
// backend can be written against a flat-buffer ABI. All shape validation
// happens in the package-level wrappers before dispatch; backend methods
// may assume the dimensions are consistent.
//
// Determinism contract: the reference GoBackend accumulates every output
// element's addends in a fixed order (ascending reduction index for the
// plain and transposed-A forms; fixed 4-way partial sums for the
// transposed-B form; segment-major partials for GemmTransBSegAcc), so
// results are bit-identical run to run. Replacement backends that cannot
// honour the same accumulation order trade bit-stability for speed — the
// round engine's bit-identity tests pin the default backend only.

// Backend is the pluggable kernel implementation behind the tensor
// package's destination-passing entry points (MatMulTo and friends,
// AddTo, AddRowTo, ColSumAcc), which reach Gemm, Add, AddRow and
// ColSumAcc. GemmBatch, GemmTransBSegAcc, Scale and Axpy have no entry
// point in this package: only benchmark/'s tracedBackend, which forwards
// all nine methods, reaches them, and they go with it (ROADMAP items
// 2(b) and 3).
type Backend interface {
	// Name identifies the backend in logs and reports.
	Name() string

	// Gemm computes dst = op(a)·op(b) (or dst += ... when acc) where dst
	// is m×n and the reduction length is k. Storage: a is m×k, or k×m
	// when transA; b is k×n, or n×k when transB. transA && transB is not
	// used by any caller and may panic.
	Gemm(dst, a, b []float64, m, k, n int, transA, transB, acc bool)

	// GemmBatch runs `groups` independent Gemms over group-strided slabs
	// of one contiguous buffer each: group g multiplies
	// a[g*strideA:]·b[g*strideB:] into dst[g*strideD:]. strideA == 0
	// broadcasts a single a operand across every group (the shared-weight
	// convolution form). Each group's result is bit-identical to a
	// standalone Gemm call on its slab.
	GemmBatch(dst, a, b []float64, groups, m, k, n, strideD, strideA, strideB int, transA, transB, acc bool)

	// GemmTransBSegAcc computes dst += a·bᵀ (dst m×n, a m×k stored
	// row-major, b n×k) with the reduction over k split into segments of
	// length seg: the 4-way partial sums used by the transposed-B kernel
	// are collapsed and folded into dst once per segment, in ascending
	// segment order. With seg == k it matches GemmTransB exactly; with
	// seg < k it reproduces, bit for bit, a sequence of k/seg separate
	// accumulate calls — the contract the fused conv backward relies on
	// to keep per-sample histories unchanged.
	GemmTransBSegAcc(dst, a, b []float64, m, k, n, seg int)

	// Add computes dst[i] = a[i] + b[i].
	Add(dst, a, b []float64)
	// Scale computes dst[i] = s * a[i].
	Scale(dst, a []float64, s float64)
	// Axpy computes dst[i] += alpha * src[i].
	Axpy(alpha float64, src, dst []float64)
	// AddRow computes dst[r][j] = x[r][j] + row[j] over a rows×cols
	// matrix — the broadcast bias add. dst may alias x.
	AddRow(dst, x, row []float64, rows, cols int)
	// ColSumAcc computes dst[j] += Σ_r x[r][j] over a rows×cols matrix,
	// accumulating rows in ascending order — the bias-gradient fold.
	ColSumAcc(dst, x []float64, rows, cols int)
}

// active is the process-wide backend. It is read on every kernel call and
// must only be swapped at startup or between training runs: SetBackend
// performs no synchronisation with in-flight kernels.
//
// defaultBackend is what SetBackend(nil) restores: GoBackend on most
// platforms, the bit-identical avx2 backend on amd64 CPUs with AVX2
// (selected in the simd_amd64 init).
var (
	defaultBackend Backend = GoBackend{}
	active         Backend = defaultBackend
)

// SetBackend installs b as the process-wide kernel backend (nil restores
// the platform default). Call it before any training starts; swapping
// mid-run races with in-flight kernels.
func SetBackend(b Backend) {
	if b == nil {
		b = defaultBackend
	}
	active = b
}

// CurrentBackend returns the installed kernel backend.
func CurrentBackend() Backend { return active }

// GoBackend is the default pure-Go backend: register-tiled, cache-aware
// matmul kernels with the fixed accumulation orders documented on
// Backend. It is stateless; the zero value is ready to use.
type GoBackend struct{}

// Name implements Backend.
func (GoBackend) Name() string { return "go" }

// Gemm implements Backend.
func (GoBackend) Gemm(dst, a, b []float64, m, k, n int, transA, transB, acc bool) {
	switch {
	case transA && transB:
		panic("tensor: Gemm transA && transB unsupported")
	case transA:
		gemmTA(dst, a, b, m, k, n, acc)
	case transB:
		gemmTBRows(dst, a, b, 0, m, k, n, k, acc)
	default:
		gemmNNRows(dst, a, b, 0, m, k, n, acc)
	}
}

// GemmBatch implements Backend by striding the group slabs through the
// single-multiply kernels. A future SIMD backend can fuse the group loop;
// the contract is only that each group matches a standalone Gemm.
func (g GoBackend) GemmBatch(dst, a, b []float64, groups, m, k, n, strideD, strideA, strideB int, transA, transB, acc bool) {
	for i := 0; i < groups; i++ {
		ai := a
		if strideA != 0 {
			ai = a[i*strideA:]
		}
		g.Gemm(dst[i*strideD:], ai, b[i*strideB:], m, k, n, transA, transB, acc)
	}
}

// GemmTransBSegAcc implements Backend.
func (GoBackend) GemmTransBSegAcc(dst, a, b []float64, m, k, n, seg int) {
	if seg <= 0 || k%seg != 0 {
		panic("tensor: GemmTransBSegAcc segment must divide the reduction length")
	}
	for s0 := 0; s0 < k; s0 += seg {
		for i := 0; i < m; i++ {
			arow := a[i*k+s0 : i*k+s0+seg]
			orow := dst[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				brow := b[j*k+s0 : j*k+s0+seg]
				orow[j] += dot4(arow, brow)
			}
		}
	}
}

// Add implements Backend.
func (GoBackend) Add(dst, a, b []float64) {
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Scale implements Backend.
func (GoBackend) Scale(dst, a []float64, s float64) {
	for i := range dst {
		dst[i] = a[i] * s
	}
}

// Axpy implements Backend.
func (GoBackend) Axpy(alpha float64, src, dst []float64) {
	for i := range dst {
		dst[i] += alpha * src[i]
	}
}

// AddRow implements Backend.
func (GoBackend) AddRow(dst, x, row []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		d := dst[r*cols : (r+1)*cols]
		s := x[r*cols : (r+1)*cols]
		for j, v := range row {
			d[j] = s[j] + v
		}
	}
}

// ColSumAcc implements Backend. Rows fold in ascending order, one add per
// element per row — the same chain as the scalar per-row loops it
// replaces in the layer backward passes.
func (GoBackend) ColSumAcc(dst, x []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		s := x[r*cols : (r+1)*cols]
		for j, v := range s {
			dst[j] += v
		}
	}
}

// gemmNNRows computes rows [i0,i1) of dst (=|+=) a·b with 2×4 register
// tiles: each output element's addends fold into a register accumulator
// in ascending-p order — seeded with the element's prior value when acc —
// so the chain is identical to the classic one-add-per-p streaming loop
// (float64 addition chains depend only on operand order, and 0+t == t
// exactly), while dst is touched once per element instead of once per p.
func gemmNNRows(dd, ad, bd []float64, i0, i1, k, n int, acc bool) {
	i := i0
	for ; i+2 <= i1; i += 2 {
		a0 := ad[i*k : (i+1)*k]
		a1 := ad[(i+1)*k : (i+2)*k]
		d0 := dd[i*n : (i+1)*n]
		d1 := dd[(i+1)*n : (i+2)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var c00, c01, c02, c03, c10, c11, c12, c13 float64
			if acc {
				c00, c01, c02, c03 = d0[j], d0[j+1], d0[j+2], d0[j+3]
				c10, c11, c12, c13 = d1[j], d1[j+1], d1[j+2], d1[j+3]
			}
			for p := 0; p < k; p++ {
				av0, av1 := a0[p], a1[p]
				brow := bd[p*n+j : p*n+j+4 : p*n+j+4]
				b0, b1, b2, b3 := brow[0], brow[1], brow[2], brow[3]
				c00 += av0 * b0
				c01 += av0 * b1
				c02 += av0 * b2
				c03 += av0 * b3
				c10 += av1 * b0
				c11 += av1 * b1
				c12 += av1 * b2
				c13 += av1 * b3
			}
			d0[j], d0[j+1], d0[j+2], d0[j+3] = c00, c01, c02, c03
			d1[j], d1[j+1], d1[j+2], d1[j+3] = c10, c11, c12, c13
		}
		for ; j < n; j++ {
			var c0, c1 float64
			if acc {
				c0, c1 = d0[j], d1[j]
			}
			for p := 0; p < k; p++ {
				bv := bd[p*n+j]
				c0 += a0[p] * bv
				c1 += a1[p] * bv
			}
			d0[j], d1[j] = c0, c1
		}
	}
	for ; i < i1; i++ {
		arow := ad[i*k : (i+1)*k]
		drow := dd[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var c0, c1, c2, c3 float64
			if acc {
				c0, c1, c2, c3 = drow[j], drow[j+1], drow[j+2], drow[j+3]
			}
			for p := 0; p < k; p++ {
				av := arow[p]
				brow := bd[p*n+j : p*n+j+4 : p*n+j+4]
				c0 += av * brow[0]
				c1 += av * brow[1]
				c2 += av * brow[2]
				c3 += av * brow[3]
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = c0, c1, c2, c3
		}
		for ; j < n; j++ {
			var c float64
			if acc {
				c = drow[j]
			}
			for p := 0; p < k; p++ {
				c += arow[p] * bd[p*n+j]
			}
			drow[j] = c
		}
	}
}

// gemmTA computes dst (=|+=) aᵀ·b where a is stored k×m (the reduction
// runs over a's rows) and dst is m×n. Same 2×4 register tiling and
// ascending-reduction chain as gemmNNRows: element (i,j) folds
// a[r*m+i]·b[r*n+j] for r = 0..k-1 in order, seeded from dst when acc —
// bit-identical to the classic rank-1-update sequence.
func gemmTA(dd, ad, bd []float64, m, k, n int, acc bool) {
	i := 0
	for ; i+2 <= m; i += 2 {
		d0 := dd[i*n : (i+1)*n]
		d1 := dd[(i+1)*n : (i+2)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var c00, c01, c02, c03, c10, c11, c12, c13 float64
			if acc {
				c00, c01, c02, c03 = d0[j], d0[j+1], d0[j+2], d0[j+3]
				c10, c11, c12, c13 = d1[j], d1[j+1], d1[j+2], d1[j+3]
			}
			for r := 0; r < k; r++ {
				av0, av1 := ad[r*m+i], ad[r*m+i+1]
				brow := bd[r*n+j : r*n+j+4 : r*n+j+4]
				b0, b1, b2, b3 := brow[0], brow[1], brow[2], brow[3]
				c00 += av0 * b0
				c01 += av0 * b1
				c02 += av0 * b2
				c03 += av0 * b3
				c10 += av1 * b0
				c11 += av1 * b1
				c12 += av1 * b2
				c13 += av1 * b3
			}
			d0[j], d0[j+1], d0[j+2], d0[j+3] = c00, c01, c02, c03
			d1[j], d1[j+1], d1[j+2], d1[j+3] = c10, c11, c12, c13
		}
		for ; j < n; j++ {
			var c0, c1 float64
			if acc {
				c0, c1 = d0[j], d1[j]
			}
			for r := 0; r < k; r++ {
				bv := bd[r*n+j]
				c0 += ad[r*m+i] * bv
				c1 += ad[r*m+i+1] * bv
			}
			d0[j], d1[j] = c0, c1
		}
	}
	for ; i < m; i++ {
		drow := dd[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var c0, c1, c2, c3 float64
			if acc {
				c0, c1, c2, c3 = drow[j], drow[j+1], drow[j+2], drow[j+3]
			}
			for r := 0; r < k; r++ {
				av := ad[r*m+i]
				brow := bd[r*n+j : r*n+j+4 : r*n+j+4]
				c0 += av * brow[0]
				c1 += av * brow[1]
				c2 += av * brow[2]
				c3 += av * brow[3]
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = c0, c1, c2, c3
		}
		for ; j < n; j++ {
			var c float64
			if acc {
				c = drow[j]
			}
			for r := 0; r < k; r++ {
				c += ad[r*m+i] * bd[r*n+j]
			}
			drow[j] = c
		}
	}
}

// gemmTBRows computes rows [i0,i1) of dst (=|+=) a·bᵀ with b stored n×k.
// Each element is a k-length dot folded as four fixed-stride partial sums
// (dot4) — the same partial structure the pre-backend kernel used, so
// bits are unchanged. rowK is b's storage row stride (== k for the plain
// call; GemmTransBSegAcc reuses dot4 with segment views instead).
func gemmTBRows(dd, ad, bd []float64, i0, i1, k, n, rowK int, acc bool) {
	for i := i0; i < i1; i++ {
		arow := ad[i*k : (i+1)*k]
		orow := dd[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			s := dot4(arow, bd[j*rowK:j*rowK+k])
			if acc {
				orow[j] += s
			} else {
				orow[j] = s
			}
		}
	}
}

// dot4 computes the inner product of equal-length slices with four
// fixed-stride partial sums — the deterministic dot kernel shared by the
// transposed-B multiplies. The partials change rounding versus a serial
// sum but are themselves a fixed order, preserving run-to-run
// determinism (and matching the pre-backend kernel exactly).
func dot4(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	p := 0
	for ; p+4 <= len(a); p += 4 {
		s0 += a[p] * b[p]
		s1 += a[p+1] * b[p+1]
		s2 += a[p+2] * b[p+2]
		s3 += a[p+3] * b[p+3]
	}
	for ; p < len(a); p++ {
		s0 += a[p] * b[p]
	}
	return s0 + s1 + s2 + s3
}
