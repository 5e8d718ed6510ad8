//go:build amd64 && !purego

package tensor

import "slices"

// AVX2 kernel primitives. Each assembly routine vectorizes across
// INDEPENDENT output elements (lanes) while keeping every element's own
// accumulation chain identical to the scalar kernels — VMULPD/VADDPD are
// one rounding per operation, exactly like Go's scalar * and + (no FMA
// contraction), so the avx2 backend is bit-identical to GoBackend. The
// dot kernel maps the scalar 4-way partial sums onto the four lanes of
// one ymm accumulator, tails fold into lane 0, and the collapse order is
// ((s0+s1)+s2)+s3 — the exact structure of the scalar dot4.

// hasAVX2 reports whether the CPU and OS support AVX2 ymm state.
func hasAVX2() bool

// axpyAVX computes dst[i] += a * x[i]. len(x) must be ≥ len(dst).
//
//go:noescape
func axpyAVX(dst, x []float64, a float64)

// axpy2AVX computes dst[i] += a0*x0[i] (then) += a1*x1[i], both adds per
// element in that order — one destination pass for two reduction steps.
// len(x0), len(x1) must be ≥ len(dst).
//
//go:noescape
func axpy2AVX(dst, x0, x1 []float64, a0, a1 float64)

// axpy4AVX computes dst[i] += a0*x0[i], then += a1*x1[i], += a2*x2[i],
// += a3*x3[i] — four reduction steps per destination pass, adds in
// ascending order per element. Lengths of x0..x3 must be ≥ len(dst).
//
//go:noescape
func axpy4AVX(dst, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64)

// dotAVX returns the 4-way partial-sum inner product of a and b (lengths
// equal): lane p%4 accumulates ascending p, tail into lane 0, collapse
// ((s0+s1)+s2)+s3 — bit-identical to the scalar dot4.
//
//go:noescape
func dotAVX(a, b []float64) float64

// dotRowsAVX computes dst[j] += dot4(aseg, b[j*stride:j*stride+len(aseg)])
// for every j — a whole destination row of accumulating dots per call,
// with the same partial-sum structure and collapse order as dotAVX.
//
//go:noescape
func dotRowsAVX(dst, aseg, b []float64, stride int)

// reluFwdAVX computes out[i] = x[i] if x[i] > 0 else 0, and mask[i] =
// x[i] > 0 (NaN → false/0, like the scalar comparison). Lengths equal.
//
//go:noescape
func reluFwdAVX(out, x []float64, mask []bool)

// reluBwdAVX computes dx[i] = g[i] if mask[i] else 0. Lengths equal.
//
//go:noescape
func reluBwdAVX(dx, g []float64, mask []bool)

// maxPool2AVX computes non-overlapping 2×2 stride-2 max pooling with
// argmax over `rows` row pairs of width w, four windows per step, `steps`
// steps per row pair. A step takes four 4-element loads — the top row at
// +0 and +half bytes, the bottom row (w elements on) at the same two —
// and moves on by 2·half: half = 32 reads eight consecutive columns of
// one row pair; half = 64 with w = 4 reads two stacked 4-wide row pairs
// (sixteen contiguous doubles) as one. Each lane replays the scalar loop:
// best starts at start, index at -1, candidates tested in (dy, dx)
// ascending order with strict > (GT_OQ) compare-and-blend.
//
//go:noescape
func maxPool2AVX(dst *float64, am *int, src *float64, w, rows, steps, half int, start float64)

// dotTileAVX is the AVX2 dot tile: eight ymm accumulators, one per cell,
// whose lanes are the cell's four partial-sum streams. c0+n must not
// exceed any vector's length and n%4 must be 0 — DotTile checks both.
//
//go:noescape
func dotTileAVX(acc *DotTileAcc, a *[DotTileRows][]float64, b *[DotTileCols][]float64, c0, n int)

// convFwdAVX convolves one padded sample into one block of up to eight
// output channels: a 4 positions × 8 channels tile of ymm accumulators
// per step, taps ascending from +0, then a 4×4 in-register transpose, the
// bias add and a store per channel. wt and bias point at the block's
// first channel, out at that channel's plane; nc ≤ 8 channels are stored.
// spatial must be ≥ 4: a ragged last tile is redone over the last four
// positions, which rewrites the same bits.
//
//go:noescape
func convFwdAVX(out, in, wt, bias *float64, tapOff, posBase *int, taps, spatial, wtStride, nc int)

// convGradAVX folds one sample into one eight-channel block of gt: the
// bias row, then per tap eight ymm accumulators — 4 position classes × 8
// channels — collapsed ((s0+s1)+s2)+s3 and added to the tap's row. gt and
// dyt point at the block's first channel; stride is their row length.
//
//go:noescape
func convGradAVX(gt, in, dyt *float64, tapOff, posBase *int, taps, spatial, stride int)

// convGradInAVX scatters one sample's input gradient into its zeroed
// padded sample: per tap and group of four positions, a ymm chain over
// the output channels ascending from +0, then one add into the group's
// four cells — which must be contiguous, posBase[pos+i] = posBase[pos]+i.
// spatial must be a multiple of 4. With split > 0, taps p and p+split
// (p < split, taps = 2·split) run together, eight chains in flight per
// sixteen positions, each half's taps ascending; the caller vouches that
// the two halves share no cell. With split = 0 the taps run singly.
//
//go:noescape
func convGradInAVX(dpad, dy, w *float64, tapOff, posBase *int, taps, spatial, outC, split int)

// transposeAVX is TransposeTo over 4×4 in-register blocks. rows and cols
// must be ≥ 4: a ragged edge is redone over the last four rows or
// columns.
//
//go:noescape
func transposeAVX(dst, src *float64, rows, cols, srcStride, dstStride int)

// deltaRangeAVX returns the finite min and max of v[i]−ref[i] over n
// elements (of v[i] when ref is nil), (+Inf, −Inf) when none is finite. n
// must be a multiple of wireLanes. A zero result's sign is unspecified.
//
//go:noescape
func deltaRangeAVX(v, ref *float64, n int) (lo, hi float64)

// quantDeltaAVX writes n bytes of the int8 grid for v[i]−ref[i] (v[i]
// when ref is nil). n must be a multiple of wireLanes and scale > 0.
//
//go:noescape
func quantDeltaAVX(dst *byte, v, ref *float64, n int, lo, scale float64)

// dequantAddAVX writes dst[i] = (lo + scale·q[i]) + ref[i] over n
// elements, without the last add when ref is nil. n must be a multiple
// of wireLanes.
//
//go:noescape
func dequantAddAVX(dst *float64, q *byte, ref *float64, n int, lo, scale float64)

// ringAddAVX computes dst[i] += src[i] for i = n−1 down to 0, four words
// at a time from the top. n must be a positive multiple of 4; src may
// overlap dst from 4 or more words up.
//
//go:noescape
func ringAddAVX(dst, src *int64, n int)

// gammaLanesAVX draws up to n Gamma variates (n a positive multiple of
// 4) into p, four per step, each from words straight from the ring
// (simd_rng.go): the step's draws are feed[i] + tap[i] over the 4·words
// words from feed and tap, highest address first, and the next step's
// sit 4·words below. It makes the draws of the variates it keeps, adds
// each kept variate to sum in index order, and returns how many it kept:
// n, or the index of the first variate off the fast path. words is 2 or 3.
//
//go:noescape
func gammaLanesAVX(p *float64, n int, feed, tap *int64, words int, d, c, sum float64) (kept int, total float64)

// divAVX computes p[i] /= s over n elements, a positive multiple of 4.
//
//go:noescape
func divAVX(p *float64, n int, s float64)

// momentumAVX is momentumStepGo over n elements (a positive multiple of
// sgdLanes): v = m·v + g, then p −= lr·v, one rounding per operation.
//
//go:noescape
func momentumAVX(p, v, grad *float64, n int, lr, m float64)

// avx2Supported is probed once at init and gates backend selection.
var avx2Supported = hasAVX2()

// avx2Backend is the AVX2-accelerated kernel backend, bit-identical to
// GoBackend (see the lane argument above). Elementwise methods it does
// not override fall through to the embedded pure-Go implementations.
type avx2Backend struct{ GoBackend }

// Name implements Backend.
func (avx2Backend) Name() string { return "avx2" }

// Gemm implements Backend. The NN and TransA forms run as k-unrolled
// row-axpy passes — dst row resident while the reduction streams — and
// the TransB form as lane-parallel 4-partial dots; large multiplies fan
// out over dst row chunks exactly like GoBackend.
func (avx2Backend) Gemm(dst, a, b []float64, m, k, n int, transA, transB, acc bool) {
	switch {
	case transA && transB:
		panic("tensor: Gemm transA && transB unsupported")
	case transA:
		gemmTAAVX(dst, a, b, m, k, n, acc)
	case transB:
		if w := matmulWorkerCount(m, m*k*n); w > 1 {
			parallelRows(m, w, func(i0, i1 int) {
				gemmTBRowsAVX(dst, a, b, i0, i1, k, n, acc)
			})
		} else {
			gemmTBRowsAVX(dst, a, b, 0, m, k, n, acc)
		}
	default:
		if w := matmulWorkerCount(m, m*k*n); w > 1 {
			parallelRows(m, w, func(i0, i1 int) {
				gemmNNRowsAVX(dst, a, b, i0, i1, k, n, acc)
			})
		} else {
			gemmNNRowsAVX(dst, a, b, 0, m, k, n, acc)
		}
	}
}

// GemmBatch implements Backend by striding the group slabs through the
// AVX2 single-multiply kernel.
func (v avx2Backend) GemmBatch(dst, a, b []float64, groups, m, k, n, strideD, strideA, strideB int, transA, transB, acc bool) {
	for i := 0; i < groups; i++ {
		ai := a
		if strideA != 0 {
			ai = a[i*strideA:]
		}
		v.Gemm(dst[i*strideD:], ai, b[i*strideB:], m, k, n, transA, transB, acc)
	}
}

// GemmTransBSegAcc implements Backend with the lane-parallel dot kernel;
// segment structure (partials reset and folded per segment, ascending)
// matches GoBackend exactly.
func (avx2Backend) GemmTransBSegAcc(dst, a, b []float64, m, k, n, seg int) {
	if seg <= 0 || k%seg != 0 {
		panic("tensor: GemmTransBSegAcc segment must divide the reduction length")
	}
	for s0 := 0; s0 < k; s0 += seg {
		for i := 0; i < m; i++ {
			dotRowsAVX(dst[i*n:(i+1)*n], a[i*k+s0:i*k+s0+seg], b[s0:], k)
		}
	}
}

// Axpy implements Backend.
func (avx2Backend) Axpy(alpha float64, src, dst []float64) {
	axpyAVX(dst, src, alpha)
}

// gemmNNRowsAVX computes rows [i0,i1) of dst (=|+=) a·b as row-axpy
// passes: dst row i accumulates a[i][p]·b[p][:] for p ascending, two
// reduction steps per destination pass. Chain per element: ascending p,
// one add per term, from 0 (after the zero fill) or the prior value —
// identical to the scalar kernels.
func gemmNNRowsAVX(dd, ad, bd []float64, i0, i1, k, n int, acc bool) {
	for i := i0; i < i1; i++ {
		drow := dd[i*n : (i+1)*n]
		if !acc {
			for j := range drow {
				drow[j] = 0
			}
		}
		arow := ad[i*k : (i+1)*k]
		p := 0
		for ; p+4 <= k; p += 4 {
			axpy4AVX(drow, bd[p*n:(p+1)*n], bd[(p+1)*n:(p+2)*n], bd[(p+2)*n:(p+3)*n], bd[(p+3)*n:(p+4)*n],
				arow[p], arow[p+1], arow[p+2], arow[p+3])
		}
		if p+2 <= k {
			axpy2AVX(drow, bd[p*n:(p+1)*n], bd[(p+1)*n:(p+2)*n], arow[p], arow[p+1])
			p += 2
		}
		if p < k {
			axpyAVX(drow, bd[p*n:(p+1)*n], arow[p])
		}
	}
}

// gemmTAAVX computes dst (=|+=) aᵀ·b (a stored k×m, dst m×n) as row-axpy
// passes with the reduction index r ascending per destination row.
func gemmTAAVX(dd, ad, bd []float64, m, k, n int, acc bool) {
	for i := 0; i < m; i++ {
		drow := dd[i*n : (i+1)*n]
		if !acc {
			for j := range drow {
				drow[j] = 0
			}
		}
		r := 0
		for ; r+4 <= k; r += 4 {
			axpy4AVX(drow, bd[r*n:(r+1)*n], bd[(r+1)*n:(r+2)*n], bd[(r+2)*n:(r+3)*n], bd[(r+3)*n:(r+4)*n],
				ad[r*m+i], ad[(r+1)*m+i], ad[(r+2)*m+i], ad[(r+3)*m+i])
		}
		if r+2 <= k {
			axpy2AVX(drow, bd[r*n:(r+1)*n], bd[(r+1)*n:(r+2)*n], ad[r*m+i], ad[(r+1)*m+i])
			r += 2
		}
		if r < k {
			axpyAVX(drow, bd[r*n:(r+1)*n], ad[r*m+i])
		}
	}
}

// gemmTBRowsAVX computes rows [i0,i1) of dst (=|+=) a·bᵀ (b stored n×k)
// with the lane-parallel dot kernel.
func gemmTBRowsAVX(dd, ad, bd []float64, i0, i1, k, n int, acc bool) {
	for i := i0; i < i1; i++ {
		arow := ad[i*k : (i+1)*k]
		orow := dd[i*n : (i+1)*n]
		if acc {
			dotRowsAVX(orow, arow, bd, k)
		} else {
			for j := 0; j < n; j++ {
				orow[j] = dotAVX(arow, bd[j*k:(j+1)*k])
			}
		}
	}
}

func init() {
	if avx2Supported {
		defaultBackend = avx2Backend{}
		active = defaultBackend
	}
}

// reluForward computes out/mask from x with the scalar semantics
// out[i] = x[i] if x[i] > 0 else 0; the AVX2 path replaces the
// data-dependent branch (a mispredict per random-signed element) with a
// compare mask.
func reluForward(out, x []float64, mask []bool) {
	if avx2Supported {
		reluFwdAVX(out, x, mask)
		return
	}
	reluForwardGo(out, x, mask)
}

// maxPool2x2Plane dispatches the checked run of row pairs to the AVX2
// maxpool kernel when the plane shape fits its vector width: rows of a
// multiple of four windows, or 4-wide planes — two windows a row pair —
// taken two row pairs at a time.
func maxPool2x2Plane(dst []float64, am []int, src []float64, w, pairs, ow int, start float64) bool {
	switch {
	case !avx2Supported || pairs == 0 || ow == 0:
		return false
	case ow%4 == 0:
		maxPool2AVX(&dst[0], &am[0], &src[0], w, pairs, ow/4, 32, start)
	case ow == 2 && w == 4 && pairs%2 == 0:
		maxPool2AVX(&dst[0], &am[0], &src[0], w, 1, pairs/2, 64, start)
	default:
		return false
	}
	return true
}

// reluBackward computes dx[i] = g[i] if mask[i] else 0.
func reluBackward(dx, g []float64, mask []bool) {
	if avx2Supported {
		reluBwdAVX(dx, g, mask)
		return
	}
	reluBackwardGo(dx, g, mask)
}

// dotTile runs the checked span on the AVX2 tile when the CPU has it.
func dotTile(acc *DotTileAcc, a *[DotTileRows][]float64, b *[DotTileCols][]float64, c0, n int) {
	if avx2Supported {
		dotTileAVX(acc, a, b, c0, n)
		return
	}
	dotTileGo(acc, a, b, c0, n)
}

// convForward runs the checked convolution on the AVX2 tile, one call per
// sample and channel block, when the CPU has it and a sample has a full
// tile of positions.
func convForward(out, in, wt, bias []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	spatial := len(posBase)
	if !avx2Supported || spatial < 4 {
		convForwardGo(out, in, wt, bias, tapOff, posBase, batch, sampleLen, outC)
		return
	}
	oc8 := ConvLanes(outC)
	for b := 0; b < batch; b++ {
		for oc := 0; oc < outC; oc += convLanes {
			convFwdAVX(&out[(b*outC+oc)*spatial], &in[b*sampleLen], &wt[oc], &bias[oc],
				&tapOff[0], &posBase[0], len(tapOff), spatial, oc8, min(outC-oc, convLanes))
		}
	}
}

// convGradParams runs the checked parameter-gradient pass on the AVX2
// kernel when the CPU has it.
func convGradParams(gt, in, dyt []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	if !avx2Supported {
		convGradParamsGo(gt, in, dyt, tapOff, posBase, batch, sampleLen, outC)
		return
	}
	oc8 := ConvLanes(outC)
	spatial := len(posBase)
	for b := 0; b < batch; b++ {
		for oc := 0; oc < oc8; oc += convLanes {
			convGradAVX(&gt[oc], &in[b*sampleLen], &dyt[b*spatial*oc8+oc],
				&tapOff[0], &posBase[0], len(tapOff), spatial, oc8)
		}
	}
}

// convGradInput runs the checked input-gradient pass on the AVX2 kernel,
// one call per sample, when the CPU has it and the positions come in
// groups of four contiguous cells (stride 1, output rows a multiple of
// four wide); any other geometry runs the twin.
func convGradInput(dpad, dy, w []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	if !avx2Supported || !convPosQuads(posBase) {
		convGradInputGo(dpad, dy, w, tapOff, posBase, batch, sampleLen, outC)
		return
	}
	taps, spatial := len(tapOff), len(posBase)
	split := convTapSplit(tapOff, posBase)
	for b := 0; b < batch; b++ {
		pad := dpad[b*sampleLen : (b+1)*sampleLen]
		clear(pad)
		convGradInAVX(&pad[0], &dy[b*outC*spatial], &w[0], &tapOff[0], &posBase[0], taps, spatial, outC, split)
	}
}

// convPosQuads reports whether the positions split into groups of four
// whose window origins are consecutive, so a group's cells under any tap
// are one ymm vector.
func convPosQuads(posBase []int) bool {
	if len(posBase)%4 != 0 {
		return false
	}
	for i := 0; i < len(posBase); i += 4 {
		q := posBase[i : i+4 : i+4]
		if q[1] != q[0]+1 || q[2] != q[0]+2 || q[3] != q[0]+3 {
			return false
		}
	}
	return true
}

// convTapSplit returns taps/2 when every cell the first half of the taps
// can reach lies below every cell the second half can — the halves are
// then the lower and upper input channels, and tap p and tap p+taps/2
// may be in flight together without reordering any cell's chain — and 0
// when the taps do not split that way (an odd number of them).
func convTapSplit(tapOff, posBase []int) int {
	if len(tapOff)%2 != 0 {
		return 0
	}
	h := len(tapOff) / 2
	if slices.Max(tapOff[:h])+slices.Max(posBase) < slices.Min(tapOff[h:])+slices.Min(posBase) {
		return h
	}
	return 0
}

// transpose runs the checked block on the AVX2 kernel when the CPU has it
// and the block holds a full 4×4.
func transpose(dst, src []float64, rows, cols, srcStride, dstStride int) {
	if !avx2Supported || rows < 4 || cols < 4 {
		transposeGo(dst, src, rows, cols, srcStride, dstStride)
		return
	}
	transposeAVX(&dst[0], &src[0], rows, cols, srcStride, dstStride)
}

// wireBlocks splits a checked n-element wire pass into the prefix the
// assembly takes (whole blocks of wireLanes, 0 without AVX2) and the
// matching reference pointer, nil when there is no reference.
func wireBlocks(n int, ref []float64) (blocks int, r *float64) {
	if !avx2Supported {
		return 0, nil
	}
	blocks = n &^ (wireLanes - 1)
	if blocks > 0 && ref != nil {
		r = &ref[0]
	}
	return blocks, r
}

// refTail is ref[n:], or nil when there is no reference.
func refTail(ref []float64, n int) []float64 {
	if ref == nil {
		return nil
	}
	return ref[n:]
}

// deltaRange runs the checked scan on the AVX2 kernel when the CPU has
// it. Minimum and maximum are exact in any order except for the sign of a
// zero, where the serial scan keeps the first one seen: when either end
// of the combined range compares equal to zero the scan is redone on the
// twin (rare — an all-non-negative or all-non-positive residual that
// contains an exact zero).
func deltaRange(v, ref []float64) (lo, hi float64) {
	n, r := wireBlocks(len(v), ref)
	if n == 0 {
		return deltaRangeGo(v, ref)
	}
	lo, hi = deltaRangeAVX(&v[0], r, n)
	tlo, thi := deltaRangeGo(v[n:], refTail(ref, n))
	lo, hi = min(lo, tlo), max(hi, thi)
	if lo == 0 || hi == 0 {
		return deltaRangeGo(v, ref)
	}
	return lo, hi
}

// quantDelta runs the checked quantise pass on the AVX2 kernel when the
// CPU has it.
func quantDelta(dst []byte, v, ref []float64, lo, scale float64) {
	n, r := wireBlocks(len(v), ref)
	if n > 0 {
		quantDeltaAVX(&dst[0], &v[0], r, n, lo, scale)
	}
	quantDeltaGo(dst[n:], v[n:], refTail(ref, n), lo, scale)
}

// ringAdd runs the block's top words on the AVX2 kernel when the CPU has
// it, then its last n%4 words — the last draws — on the twin.
func ringAdd(dst, src []int64) {
	tail := len(dst)
	if avx2Supported && tail >= 4 {
		tail = len(dst) % 4
		ringAddAVX(&dst[tail], &src[tail], len(dst)-tail)
	}
	ringAddGo(dst[:tail], src[:tail])
}

// dirichletInto runs DirichletInto's Gamma draws on the AVX2 kernel when
// the CPU has it and the shape has lanes, else DirichletIntoGo. The
// kernel takes runs of whole steps that end before tap or feed wraps and
// before p does; the draw it stops at, the draws around a wrap and the
// last len(p)%4 run the scalar gamma over the source as it stands.
func (g *RNG) dirichletInto(p []float64, alpha float64) {
	words := gammaWords(alpha)
	if !avx2Supported || words == 0 {
		g.DirichletIntoGo(p, alpha)
		return
	}
	d, c := gammaDC(alpha)
	s := &g.src
	sum := 0.0
	for i := 0; i < len(p); {
		tap, feed := s.tap, s.feed
		if tap == 0 {
			tap = rngLen
		}
		if feed == 0 {
			feed = rngLen
		}
		if n := min(min(tap, feed)/words, len(p)-i) &^ 3; n > 0 {
			var kept int
			kept, sum = gammaLanesAVX(&p[i], n, &s.vec[feed-4*words], &s.vec[tap-4*words], words, d, c, sum)
			if kept > 0 {
				s.tap, s.feed = tap-kept*words, feed-kept*words
				s.n += uint64(kept * words)
			}
			if i += kept; kept == n {
				continue
			}
		}
		p[i] = g.gamma(alpha, d, c)
		sum += p[i]
		i++
	}
	if sum == 0 {
		p[g.Intn(len(p))] = 1
		return
	}
	n := len(p) &^ 3
	if n > 0 {
		divAVX(&p[0], n, sum)
	}
	for i := n; i < len(p); i++ {
		p[i] /= sum
	}
}

// momentumStep runs the checked step's whole blocks on the AVX2 kernel
// when the CPU has it, and the rest on the twin.
func momentumStep(p, v, g []float64, lr, m float64) {
	n := 0
	if avx2Supported {
		n = len(p) &^ (sgdLanes - 1)
	}
	if n > 0 {
		momentumAVX(&p[0], &v[0], &g[0], n, lr, m)
	}
	momentumStepGo(p[n:], v[n:], g[n:], lr, m)
}

// dequantAdd runs the checked dequantise pass on the AVX2 kernel when the
// CPU has it.
func dequantAdd(dst []float64, q []byte, ref []float64, lo, scale float64) {
	n, r := wireBlocks(len(dst), ref)
	if n > 0 {
		dequantAddAVX(&dst[0], &q[0], r, n, lo, scale)
	}
	dequantAddGo(dst[n:], q[n:], refTail(ref, n), lo, scale)
}
