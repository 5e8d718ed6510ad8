//go:build !amd64 || purego

package tensor

// Non-amd64 (or purego) builds run the portable scalar kernels; the
// process-wide backend stays GoBackend.

func reluForward(out, x []float64, mask []bool) { reluForwardGo(out, x, mask) }
func reluBackward(dx, g []float64, mask []bool) { reluBackwardGo(dx, g, mask) }

func maxPool2x2Plane(dst []float64, am []int, src []float64, w, oh, ow, base int) bool {
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

func transpose(dst, src []float64, rows, cols, srcStride, dstStride int) {
	transposeGo(dst, src, rows, cols, srcStride, dstStride)
}
