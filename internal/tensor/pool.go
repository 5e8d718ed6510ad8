package tensor

// MaxPool2x2 runs non-overlapping 2×2 stride-2 max pooling with argmax
// recording over `planes` stacked channel planes (the CHW layout of one
// sample) when an accelerated kernel applies, returning false otherwise
// (the caller then falls back to its scalar loop). src holds planes of
// 2·oh rows × w columns back to back; dst and am receive planes·oh·ow
// outputs; am records the flat index of each winning tap into src.
// Semantics are the scalar argmax loop's exactly: candidates visited in
// (dy, dx) ascending order, strict > against a running maximum that
// begins at start, so ties keep the earliest tap, NaN never wins, and a
// window in which nothing beats start outputs start and records index -1
// (start is -Inf for a plain pool, +0 for one with a ReLU folded in).
func MaxPool2x2(dst []float64, am []int, src []float64, w, oh, ow, planes int, start float64) bool {
	n := planes * oh * ow
	if len(dst) < n || len(am) < n || len(src) < planes*2*oh*w {
		panic("tensor: MaxPool2x2 plane size mismatch")
	}
	// Plane p's rows, outputs, and indices all start exactly where plane
	// p-1's ended, so the kernel sweeps all planes as one run of
	// oh·planes row pairs.
	return maxPool2x2Plane(dst, am, src, w, oh*planes, ow, start)
}
