//go:build !amd64 || purego

package tensor

// Non-amd64 (or purego) builds run the portable scalar kernels; the
// process-wide backend stays GoBackend.

func reluForward(out, x []float64, mask []bool) { ReluForwardGo(out, x, mask) }
func reluBackward(dx, g []float64, mask []bool) { ReluBackwardGo(dx, g, mask) }

func maxPool2x2Plane(dst []float64, am []int, src []float64, pairs, ow int) bool { return false }

func dotTile(acc *DotTileAcc, a *[DotTileRows][]float64, b *[DotTileCols][]float64, c0, n int) {
	dotTileGo(acc, a, b, c0, n)
}

func narrowPadded(dst []float32, src []float64, planes, h, w int) {
	narrowPaddedGo(dst, src, planes, h, w)
}

func unpool2x2(dx, g []float64, am []int, ow, pairs, batch int) {
	unpool2x2Go(dx, g, am, ow, pairs, batch)
}

func unpoolPadded(dst []float32, g []float64, taps []int32, planes, oh, ow int) {
	unpoolPaddedGo(dst, g, taps, planes, oh, ow)
}

func unpoolPadVector(oh, ow int) bool { return false }

func deltaRange(v, ref []float64) (lo, hi float64) { return deltaRangeGo(v, ref) }

func quantDelta(dst []byte, v, ref []float64, lo, scale float64) {
	quantDeltaGo(dst, v, ref, lo, scale)
}

func dequantAdd(dst []float64, q []byte, ref []float64, lo, scale float64) {
	dequantAddGo(dst, q, ref, lo, scale)
}

func momentumStep(p, v, g []float64, lr, m float64) { momentumStepGo(p, v, g, lr, m) }

func axpy(dst, x []float64, a float64) { axpyGo(dst, x, a) }

func axpy4(dst, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64) {
	axpy4Go(dst, x0, x1, x2, x3, a0, a1, a2, a3)
}

func lerp(dst, v, w []float64, a, b float64) { lerpGo(dst, v, w, a, b) }

func allFinite(v []float64) bool { return allFiniteGo(v) }

func (g *RNG) gammaRun(p []float64, alpha, d, c, sum float64, rec []uint64) float64 {
	return g.gammaRunGo(p, alpha, d, c, sum, rec)
}

func divide(p []float64, s float64) {
	for i := range p {
		p[i] /= s
	}
}

func winoVector(outC int) bool { return false }

// finishVector: no finish kernel here.
const finishVector = false

func visionFinish(dst, v, phase []float64) { visionFinishGo(dst, v, phase) }

func winoInput(v, in []float32, tab []int, groups, chans, plane, pw, d2 int, vec bool) {
	winoInputGo(v, in, tab, groups, chans, plane, pw, d2)
}

func winoOutput(out []float64, taps []int32, v, u []float32, bias []float64, tab []int, groups, inC, outC, plane, ow, d2 int, vec bool) {
	winoOutputGo(out, taps, v, u, bias, tab, groups, inC, outC, plane, ow, d2)
}

func winoGradDy(s, db, dy []float32, tab []int, groups, outC, plane, pw, d2 int, dup, vec bool) {
	winoGradDyGo(s, db, dy, tab, groups, outC, plane, pw, d2, dup)
}

func winoGradMul(mw, acc, v, s []float32, groups, inC, outC int, first, last, vec bool) {
	winoGradMulGo(mw, acc, v, s, groups, inC, outC, first, last)
}

func winoFilters(u, ut []float32, w []float64, tab []int, vec bool) {
	winoFiltersGo(u, ut, w, tab, 0)
}

func winoGrads(dW, dB []float64, mw, db []float32, inC, outC int, vec bool) {
	winoGradsGo(dW, dB, mw, db, 0, inC, outC)
}
