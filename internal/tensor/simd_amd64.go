//go:build amd64 && !purego

package tensor

import "math"

// AVX2 kernel primitives. Each assembly routine vectorizes across
// INDEPENDENT output elements (lanes) while keeping every element's own
// accumulation chain identical to the scalar kernels — VMULPD/VADDPD are
// one rounding per operation, exactly like Go's scalar * and + (no FMA
// contraction), so the avx2 backend is bit-identical to GoBackend. The
// dot kernels map the scalar 4-way partial sums onto the four lanes of
// a ymm accumulator, tails fold into lane 0, and the collapse order is
// ((s0+s1)+s2)+s3 — the exact structure of the scalar dot4.

// hasAVX2 reports whether the CPU and OS support AVX2 ymm state.
func hasAVX2() bool

// axpyAVX computes dst[i] += a * x[i]. len(x) must be ≥ len(dst).
//
//go:noescape
func axpyAVX(dst, x []float64, a float64)

// axpy4AVX computes dst[i] += a0*x0[i], then += a1*x1[i], += a2*x2[i],
// += a3*x3[i] — four reduction steps per destination pass, adds in
// ascending order per element. Lengths of x0..x3 must be ≥ len(dst).
//
//go:noescape
func axpy4AVX(dst, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64)

// gemmAxpyAVX computes dst (=|+=) A·b over register-resident tiles, where
// A(i,p) = a[i·ars + p·aps] — the NN form with (ars, aps) = (k, 1), the
// TransA form with (1, m). b is k×n, dst m×n, and m, n, k ≥ 1. Every
// element is one lane of one accumulator for the whole reduction: from +0
// or its prior value, p ascending, one multiply then one add.
//
//go:noescape
func gemmAxpyAVX(dst, a, b *float64, m, k, n, ars, aps int, acc bool)

// gemmDotAVX computes dst (=|+=) a·bᵀ (a m×k, b n×k, dst m×n; m, n, k ≥ 1)
// over 2×4 tiles of dot4 stream lanes collapsed in registers: each
// element is dot4 of its two rows, stored or added once.
//
//go:noescape
func gemmDotAVX(dst, a, b *float64, m, k, n int, acc bool)

// reluFwdAVX computes out[i] = x[i] if x[i] > 0 else 0, and mask[i] =
// x[i] > 0 (NaN → false/0, like the scalar comparison). Lengths equal.
//
//go:noescape
func reluFwdAVX(out, x []float64, mask []bool)

// reluBwdAVX computes dx[i] = g[i] if mask[i] else 0. Lengths equal.
//
//go:noescape
func reluBwdAVX(dx, g []float64, mask []bool)

// maxPool2AVX computes a ReLU and then non-overlapping 2×2 stride-2 max
// pooling with argmax over `rows` row pairs of 8·steps columns, four
// windows (eight columns) a step. Each lane replays the scalar loop: best
// starts at +0, index at -1, candidates tested in (dy, dx) ascending
// order with strict > (GT_OQ) compare-and-blend. rows and steps are at
// least 1: its loops test at the bottom.
//
//go:noescape
func maxPool2AVX(dst *float64, am *int, src *float64, rows, steps int)

// dotTileAVX is the AVX2 dot tile: eight ymm accumulators, one per cell,
// whose lanes are the cell's four partial-sum streams. c0+n must not
// exceed any vector's length and n%4 must be 0 — DotTile checks both.
//
//go:noescape
func dotTileAVX(acc *DotTileAcc, a *[DotTileRows][]float64, b *[DotTileCols][]float64, c0, n int)

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

// lerpAVX is lerpGo over n elements (a positive multiple of lerpLanes):
// dst = a·v + b·w, one rounding per operation.
//
//go:noescape
func lerpAVX(dst, v, w *float64, n int, a, b float64)

// allFiniteAVX is allFiniteGo over n elements (a positive multiple of
// finiteLanes).
//
//go:noescape
func allFiniteAVX(v *float64, n int) bool

// narrowAVX converts planes × h rows of w float64 (w a positive multiple
// of 4), contiguous in src, to the float32 interiors of planes padded by
// one in dst, dst at the first plane's first interior cell.
//
//go:noescape
func narrowAVX(dst *float32, src *float64, planes, h, w int)

// unpoolAVX writes the 2×2 unpool of batch samples of rows row pairs of
// 8·steps columns, four windows a step: a step reads four argmax indices
// and gradients and writes the eight top-row cells of its windows and the
// eight below them.
//
//go:noescape
func unpoolAVX(dx, grad *float64, am *int, batch, rows, steps int)

// avx2Supported is probed once at init and gates backend selection.
var avx2Supported = hasAVX2()

// avx2Backend is the AVX2-accelerated kernel backend, bit-identical to
// GoBackend (see the lane argument above). It overrides only Gemm; every
// other method runs the embedded GoBackend.
type avx2Backend struct{ GoBackend }

// Name implements Backend.
func (avx2Backend) Name() string { return "avx2" }

// Gemm implements Backend on two register-tiled kernels, one call per
// multiply: NN and TransA on gemmAxpyAVX (TransA is NN with a's strides
// swapped), TransB on gemmDotAVX. An empty shape runs the GoBackend twin;
// a slice too short for the shape panics here, before the assembly.
func (avx2Backend) Gemm(dst, a, b []float64, m, k, n int, transA, transB, acc bool) {
	switch {
	case transA && transB:
		panic("tensor: Gemm transA && transB unsupported")
	case m == 0 || k == 0 || n == 0:
		GoBackend{}.Gemm(dst, a, b, m, k, n, transA, transB, acc)
		return
	}
	_, _, _ = dst[m*n-1], a[m*k-1], b[k*n-1]
	switch {
	case transB:
		gemmDotAVX(&dst[0], &a[0], &b[0], m, k, n, acc)
	case transA:
		gemmAxpyAVX(&dst[0], &a[0], &b[0], m, k, n, 1, m, acc)
	default:
		gemmAxpyAVX(&dst[0], &a[0], &b[0], m, k, n, k, 1, acc)
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
	ReluForwardGo(out, x, mask)
}

// maxPool2x2Plane dispatches the checked run of row pairs to the AVX2
// maxpool kernel when its rows are a multiple of four windows.
func maxPool2x2Plane(dst []float64, am []int, src []float64, pairs, ow int) bool {
	if !avx2Supported || pairs == 0 || ow == 0 || ow%4 != 0 {
		return false
	}
	maxPool2AVX(&dst[0], &am[0], &src[0], pairs, ow/4)
	return true
}

// reluBackward computes dx[i] = g[i] if mask[i] else 0.
func reluBackward(dx, g []float64, mask []bool) {
	if avx2Supported {
		reluBwdAVX(dx, g, mask)
		return
	}
	ReluBackwardGo(dx, g, mask)
}

// dotTile runs the checked span on the AVX2 tile when the CPU has it.
func dotTile(acc *DotTileAcc, a *[DotTileRows][]float64, b *[DotTileCols][]float64, c0, n int) {
	if avx2Supported {
		dotTileAVX(acc, a, b, c0, n)
		return
	}
	dotTileGo(acc, a, b, c0, n)
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

// gammaRun is gammaRunGo on the AVX2 kernel when the CPU has it and the
// shape has lanes. The kernel takes runs of whole steps that end before
// tap or feed wraps and before p does; the draw it stops at, the draws
// around a wrap and the last len(p)%4 run the scalar gamma over the
// source as it stands.
func (g *RNG) gammaRun(p []float64, alpha, d, c, sum float64, rec []uint64) float64 {
	words := gammaWords(alpha)
	if !avx2Supported || words == 0 {
		return g.gammaRunGo(p, alpha, d, c, sum, rec)
	}
	s := &g.src
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
			if rec != nil {
				for t := range kept {
					rec[i+t] = s.n + uint64(t*words)
				}
			}
			if kept > 0 {
				s.tap, s.feed = tap-kept*words, feed-kept*words
				s.n += uint64(kept * words)
			}
			if i += kept; kept == n {
				continue
			}
		}
		if rec != nil {
			rec[i] = s.n
		}
		p[i] = g.gamma(alpha, d, c)
		sum += p[i]
		i++
	}
	return sum
}

// divide computes p[i] /= s, whole blocks of four on VDIVPD (correctly
// rounded, so the scalar quotient's bits).
func divide(p []float64, s float64) {
	n := 0
	if avx2Supported {
		n = len(p) &^ 3
	}
	if n > 0 {
		divAVX(&p[0], n, s)
	}
	for i := n; i < len(p); i++ {
		p[i] /= s
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

// axpy runs the checked fold on the AVX2 kernel when the CPU has it; the
// kernel finishes its own tail with the same scalar operations.
func axpy(dst, x []float64, a float64) {
	if avx2Supported {
		axpyAVX(dst, x, a)
		return
	}
	axpyGo(dst, x, a)
}

// axpy4 is axpy for four vectors in one destination pass.
func axpy4(dst, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64) {
	if avx2Supported {
		axpy4AVX(dst, x0, x1, x2, x3, a0, a1, a2, a3)
		return
	}
	axpy4Go(dst, x0, x1, x2, x3, a0, a1, a2, a3)
}

// lerp runs the checked combination's whole blocks on the AVX2 kernel
// when the CPU has it, and the rest on the twin.
func lerp(dst, v, w []float64, a, b float64) {
	n := 0
	if avx2Supported {
		n = len(dst) &^ (lerpLanes - 1)
	}
	if n > 0 {
		lerpAVX(&dst[0], &v[0], &w[0], n, a, b)
	}
	lerpGo(dst[n:], v[n:], w[n:], a, b)
}

// allFinite screens v's whole blocks on the AVX2 kernel when the CPU has
// it, and the rest on the twin.
func allFinite(v []float64) bool {
	n := 0
	if avx2Supported {
		n = len(v) &^ (finiteLanes - 1)
	}
	return (n == 0 || allFiniteAVX(&v[0], n)) && allFiniteGo(v[n:])
}

// narrowPadded runs the checked narrow on the AVX2 kernel when the CPU has
// it, in one call for the batch; rows whose width is not a multiple of 4
// run the twin whole.
func narrowPadded(dst []float32, src []float64, planes, h, w int) {
	if !avx2Supported || planes*h*w == 0 || w%4 != 0 {
		narrowPaddedGo(dst, src, planes, h, w)
		return
	}
	narrowAVX(&dst[w+2+1], &src[0], planes, h, w) // the first interior cell
}

// unpool2x2 runs the checked unpool on the AVX2 kernel, one call for the
// batch, for the shapes maxPool2x2Plane takes: rows of a multiple of four
// windows.
func unpool2x2(dx, g []float64, am []int, ow, pairs, batch int) {
	if !avx2Supported || batch*pairs*ow == 0 || ow%4 != 0 {
		unpool2x2Go(dx, g, am, ow, pairs, batch)
		return
	}
	unpoolAVX(&dx[0], &g[0], &am[0], batch, pairs, ow/4)
}

// unpoolPadAVX writes the unpool of planes × rows × steps steps of four
// pooled gradients each into float32 rows of padded planes pw elements
// wide, dst at the first plane's first interior cell. A step writes two
// 4-cell runs of a top row, at +0 and +half elements, and the same two pw
// elements on, and moves on by 2·half elements, and by skip more after
// each row.
//
//go:noescape
func unpoolPadAVX(dst *float32, grad *float64, taps *int32, planes, rows, steps, half, pw, skip int)

// unpoolPadded runs the checked unpool on the AVX2 kernel, one call for
// the batch, for the planes unpoolPadVector takes: rows of a multiple of
// four windows, or 2-window rows taken two at a time.
func unpoolPadded(dst []float32, g []float64, taps []int32, planes, oh, ow int) {
	pw := 2*ow + 2
	switch {
	case planes*oh == 0 || !unpoolPadVector(oh, ow):
		unpoolPaddedGo(dst, g, taps, planes, oh, ow)
	case ow == 2:
		unpoolPadAVX(&dst[pw+1], &g[0], &taps[0], planes, 1, oh/2, 2*pw, pw, 0)
	default:
		unpoolPadAVX(&dst[pw+1], &g[0], &taps[0], planes, oh, ow/4, 4, pw, pw+2)
	}
}

// unpoolPadVector reports whether UnpoolPadded runs planes of oh × ow
// windows, at least one, on AVX2.
func unpoolPadVector(oh, ow int) bool {
	return avx2Supported && (ow > 0 && ow%4 == 0 || ow == 2 && oh%2 == 0)
}

// winoVector reports whether the Winograd kernels of a convolution with
// outC output channels run on AVX2: the weight-gradient product works
// eight output channels at a time.
func winoVector(outC int) bool { return avx2Supported && outC >= 8 }

// winoInAVX writes the transformed windows of `groups` groups of `chans`
// channel planes `plane` elements apart, rows pw apart, each group's two
// quads at tab[2g] and tab[2g+1], second tile pairs d2 further on.
//
//go:noescape
func winoInAVX(v, in *float32, tab *int, groups, chans, plane, pw, d2 int)

// winoOutAVX writes the outputs of `groups` groups and outC channels
// from their transformed tiles v and filters u; bias may be nil. With
// taps not nil it pools each tile into one output and one tap code at
// the same offset of out and taps.
//
//go:noescape
func winoOutAVX(out *float64, v, u *float32, bias *float64, tab *int, groups, inC, outC, plane, ow, d2 int, taps *int32)

// winoDyAVX writes the transformed output-gradient tiles and adds the
// tile sums into db, which the caller zeroes; dup zeroes the last
// group's high half.
//
//go:noescape
func winoDyAVX(s, db, dy *float32, tab *int, groups, outC, plane, pw, d2 int, dup bool)

// winoMulAVX runs the weight gradient's transformed-domain sums over a
// run of groups, from +0 in the first run and carried in acc between
// runs; after the last run it writes mw. acc is not read in the first
// run or written in the last. outC must be at least 8.
//
//go:noescape
func winoMulAVX(mw, acc, v, s *float32, groups, inC, outC int, first, last bool)

// winoFilterAVX writes the transformed filters of blocks·8 channel pairs
// into u and each one flipped into ut at the element offset tab gives
// it.
//
//go:noescape
func winoFilterAVX(u, ut *float32, w *float64, tab *int, blocks int)

// winoGradsAVX adds the parameter gradients of the first blocks·8 output
// channels from their transformed-domain sums and bias lanes.
//
//go:noescape
func winoGradsAVX(dW, dB *float64, mw, db *float32, blocks, inC, outC int)

// The Winograd dispatchers run the assembly when the plan is vector
// (winoVector) and there is a group to run; the twins otherwise.

func winoInput(v, in []float32, tab []int, groups, chans, plane, pw, d2 int, vec bool) {
	if !vec || groups == 0 {
		winoInputGo(v, in, tab, groups, chans, plane, pw, d2)
		return
	}
	winoInAVX(&v[0], &in[0], &tab[0], groups, chans, plane, pw, d2)
}

func winoOutput(out []float64, taps []int32, v, u []float32, bias []float64, tab []int, groups, inC, outC, plane, ow, d2 int, vec bool) {
	if !vec || groups == 0 {
		winoOutputGo(out, taps, v, u, bias, tab, groups, inC, outC, plane, ow, d2)
		return
	}
	var b *float64
	if bias != nil {
		b = &bias[0]
	}
	var tp *int32
	if taps != nil {
		tp = &taps[0]
	}
	winoOutAVX(&out[0], &v[0], &u[0], b, &tab[0], groups, inC, outC, plane, ow, d2, tp)
}

func winoGradDy(s, db, dy []float32, tab []int, groups, outC, plane, pw, d2 int, dup, vec bool) {
	if !vec || groups == 0 {
		winoGradDyGo(s, db, dy, tab, groups, outC, plane, pw, d2, dup)
		return
	}
	winoDyAVX(&s[0], &db[0], &dy[0], &tab[0], groups, outC, plane, pw, d2, dup)
}

func winoGradMul(mw, acc, v, s []float32, groups, inC, outC int, first, last, vec bool) {
	if !vec || groups == 0 {
		winoGradMulGo(mw, acc, v, s, groups, inC, outC, first, last)
		return
	}
	var a *float32
	if !(first && last) {
		a = &acc[0]
	}
	winoMulAVX(&mw[0], a, &v[0], &s[0], groups, inC, outC, first, last)
}

// winoFilters runs the filter transform's whole blocks of eight channel
// pairs on the assembly and the rest on the twin.
func winoFilters(u, ut []float32, w []float64, tab []int, vec bool) {
	n := 0
	if vec {
		n = len(tab) &^ 7
	}
	if n > 0 {
		_, _ = u[n*16-1], w[n*9-1] // a short operand panics here, not in the assembly
		winoFilterAVX(&u[0], &ut[0], &w[0], &tab[0], n/8)
	}
	winoFiltersGo(u, ut, w, tab, n)
}

// winoGrads runs the gradients of whole blocks of eight output channels
// on the assembly and the rest on the twin.
func winoGrads(dW, dB []float64, mw, db []float32, inC, outC int, vec bool) {
	n := 0
	if vec {
		n = outC &^ 7
	}
	if n > 0 {
		winoGradsAVX(&dW[0], &dB[0], &mw[0], &db[0], n/8, inC, outC)
	}
	winoGradsGo(dW, dB, mw, db, n, inC, outC)
}

// finishAVX is visionFinishGo over n elements (a positive multiple of
// finishLanes), from the first up to the first block holding an argument
// 2·v + phase that VisionSin hands to math.Sin. It leaves that block
// unwritten and returns its start, or n. tab is finishTab.
//
//go:noescape
func finishAVX(dst, v, phase *float64, n int, tab *[20][4]float64) int

// finishVector reports whether VisionFinish runs its whole blocks on
// AVX2. A build that may fuse x·y + z turns it off (simd_v3_amd64.go).
var finishVector = avx2Supported

// finishTab is the finish kernel's constants, each in four lanes:
// 4/π, the three parts of π/4, 0.5 and 1, cosCoef, sinCoef, 0.4, then
// reduceBits as a float's bits.
var finishTab = func() (t [20][4]float64) {
	k := append([]float64{4 / math.Pi, pi4a, pi4b, pi4c, 0.5, 1}, cosCoef[:]...)
	k = append(append(k, sinCoef[:]...), 0.4, math.Float64frombits(reduceBits))
	for i, c := range k {
		t[i] = [4]float64{c, c, c, c}
	}
	return t
}()

// visionFinish runs the checked finish's whole blocks on the AVX2 kernel
// where finishVector holds; the blocks the kernel stops at and the rest
// run on the twin.
func visionFinish(dst, v, phase []float64) {
	n := 0
	if finishVector {
		n = len(dst) &^ (finishLanes - 1)
	}
	for i := 0; i < n; {
		if i += finishAVX(&dst[i], &v[i], &phase[i], n-i, &finishTab); i < n {
			visionFinishGo(dst[i:i+finishLanes], v[i:i+finishLanes], phase[i:i+finishLanes])
			i += finishLanes
		}
	}
	visionFinishGo(dst[n:], v[n:], phase[n:])
}
