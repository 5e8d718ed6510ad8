//go:build !amd64 || purego

package tensor

// Non-amd64 (or purego) builds run the portable scalar kernels; the
// process-wide backend stays GoBackend.

func reluForward(out, x []float64, mask []bool) { reluForwardGo(out, x, mask) }
func reluBackward(dx, g []float64, mask []bool) { reluBackwardGo(dx, g, mask) }

func maxPool2x2Plane(dst []float64, am []int, src []float64, w, pairs, ow int, start float64) bool {
	return false
}

func dotTile(acc *DotTileAcc, a *[DotTileRows][]float64, b *[DotTileCols][]float64, c0, n int) {
	dotTileGo(acc, a, b, c0, n)
}

func convForward(out, in, wt, bias []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	convForwardGo(out, in, wt, bias, tapOff, posBase, batch, sampleLen, outC)
}

func convGradParams(gt, in, dyt []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	convGradParamsGo(gt, in, dyt, tapOff, posBase, batch, sampleLen, outC)
}

func convGradInput(dpad, dy, w []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	convGradInputGo(dpad, dy, w, tapOff, posBase, batch, sampleLen, outC)
}

func transpose(dst, src []float64, rows, cols, srcStride, dstStride int) {
	transposeGo(dst, src, rows, cols, srcStride, dstStride)
}

func deltaRange(v, ref []float64) (lo, hi float64) { return deltaRangeGo(v, ref) }

func quantDelta(dst []byte, v, ref []float64, lo, scale float64) {
	quantDeltaGo(dst, v, ref, lo, scale)
}

func dequantAdd(dst []float64, q []byte, ref []float64, lo, scale float64) {
	dequantAddGo(dst, q, ref, lo, scale)
}

func momentumStep(p, v, g []float64, lr, m float64) { momentumStepGo(p, v, g, lr, m) }

func ringAdd(dst, src []int64) { ringAddGo(dst, src) }

func (g *RNG) dirichletInto(p []float64, alpha float64) { g.DirichletIntoGo(p, alpha) }
