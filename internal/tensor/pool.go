package tensor

import "fmt"

// MaxPool2x2 runs non-overlapping 2×2 stride-2 max pooling with argmax
// recording over `planes` stacked channel planes (the CHW layout of one
// sample). src holds planes of 2·oh rows × w columns back to back; dst and
// am receive planes·oh·ow outputs; am records the flat index of each
// winning tap into src. Candidates are visited in (dy, dx) ascending
// order, strict > against a running maximum that begins at start, so ties
// keep the earliest tap, NaN never wins, and a window in which nothing
// beats start outputs start and records index -1 (start is -Inf for a
// plain pool, +0 for one with a ReLU folded in). The AVX2 kernel takes
// rows of a multiple of four windows and 4-wide planes in even row-pair
// counts; every other shape, and every build without it, runs the scalar
// twin, which the kernel reproduces bit for bit.
func MaxPool2x2(dst []float64, am []int, src []float64, w, oh, ow, planes int, start float64) {
	checkPool(len(dst), len(am), len(src), w, oh, ow, planes)
	// Plane p's rows, outputs, and indices all start exactly where plane
	// p-1's ended, so the kernel sweeps all planes as one run of
	// oh·planes row pairs.
	if !maxPool2x2Plane(dst, am, src, w, oh*planes, ow, start) {
		maxPool2x2Go(dst, am, src, w, oh*planes, ow, start)
	}
}

// MaxPool2x2Go is MaxPool2x2 on the portable scalar kernel.
func MaxPool2x2Go(dst []float64, am []int, src []float64, w, oh, ow, planes int, start float64) {
	checkPool(len(dst), len(am), len(src), w, oh, ow, planes)
	maxPool2x2Go(dst, am, src, w, oh*planes, ow, start)
}

// checkPool is the only bounds check MaxPool2x2 gets: no negative count,
// windows that fit their rows, and operands that hold every plane.
func checkPool(dst, am, src, w, oh, ow, planes int) {
	n := planes * oh * ow
	if min(w-2*ow, oh, ow, planes) < 0 || dst < n || am < n || src < planes*2*oh*w {
		panic(fmt.Sprintf("tensor: MaxPool2x2 %d planes of %d row pairs, %d windows of %d-wide rows", planes, oh, ow, w))
	}
}

// maxPool2x2Go is one sweep over the row pairs of stacked planes (src
// holds `pairs` row pairs of width w back to back, so channel planes need
// no loop of their own), each window's four taps tested in (dy, dx) order
// against a maximum that begins at start.
func maxPool2x2Go(dst []float64, am []int, src []float64, w, pairs, ow int, start float64) {
	for r := 0; r < pairs; r++ {
		top := src[2*r*w : (2*r+1)*w]
		bot := src[(2*r+1)*w : (2*r+2)*w]
		drow := dst[r*ow : (r+1)*ow]
		arow := am[r*ow : (r+1)*ow]
		for ox := range drow {
			best, bestIdx := start, -1
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
