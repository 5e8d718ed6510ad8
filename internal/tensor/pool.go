package tensor

import "fmt"

// MaxPool2x2 runs a ReLU and then non-overlapping 2×2 stride-2 max
// pooling, with argmax recording, over `planes` stacked channel planes
// (the CHW layout of one sample). src holds planes of 2·oh rows × 2·ow
// columns back to back; dst and am receive planes·oh·ow outputs; am
// records the flat index of each winning tap into src. Candidates are
// visited in (dy, dx) ascending order, strict > against a running maximum
// that begins at +0, so ties keep the earliest tap, NaN never wins, and a
// window with nothing positive outputs +0 and records index -1. The AVX2
// kernel takes rows of a multiple of four windows; every other shape, and
// every build without it, runs the scalar twin, which the kernel
// reproduces bit for bit.
func MaxPool2x2(dst []float64, am []int, src []float64, oh, ow, planes int) {
	checkPool(len(dst), len(am), len(src), oh, ow, planes)
	// Plane p's rows, outputs, and indices all start exactly where plane
	// p-1's ended, so the kernel sweeps all planes as one run of
	// oh·planes row pairs.
	if !maxPool2x2Plane(dst, am, src, oh*planes, ow) {
		maxPool2x2Go(dst, am, src, oh*planes, ow)
	}
}

// MaxPool2x2Go is MaxPool2x2 on the portable scalar kernel.
func MaxPool2x2Go(dst []float64, am []int, src []float64, oh, ow, planes int) {
	checkPool(len(dst), len(am), len(src), oh, ow, planes)
	maxPool2x2Go(dst, am, src, oh*planes, ow)
}

// checkPool is the only bounds check MaxPool2x2 gets: no negative count
// and operands that hold every plane.
func checkPool(dst, am, src, oh, ow, planes int) {
	n := planes * oh * ow
	if min(oh, ow, planes) < 0 || dst < n || am < n || src < 4*n {
		panic(fmt.Sprintf("tensor: MaxPool2x2 %d planes of %d row pairs, %d windows wide", planes, oh, ow))
	}
}

// maxPool2x2Go is one sweep over the row pairs of stacked planes (src
// holds `pairs` row pairs of width 2·ow back to back, so channel planes
// need no loop of their own), each window's four taps tested in (dy, dx)
// order against a maximum that begins at +0.
func maxPool2x2Go(dst []float64, am []int, src []float64, pairs, ow int) {
	w := 2 * ow
	for r := 0; r < pairs; r++ {
		top := src[2*r*w : (2*r+1)*w]
		bot := src[(2*r+1)*w : (2*r+2)*w]
		drow := dst[r*ow : (r+1)*ow]
		arow := am[r*ow : (r+1)*ow]
		for ox := range drow {
			best, bestIdx := 0.0, -1
			if v := top[2*ox]; v > best {
				best, bestIdx = v, 2*r*w+2*ox
			}
			if v := top[2*ox+1]; v > best {
				best, bestIdx = v, 2*r*w+2*ox+1
			}
			if v := bot[2*ox]; v > best {
				best, bestIdx = v, (2*r+1)*w+2*ox
			}
			if v := bot[2*ox+1]; v > best {
				best, bestIdx = v, (2*r+1)*w+2*ox+1
			}
			drow[ox], arow[ox] = best, bestIdx
		}
	}
}
