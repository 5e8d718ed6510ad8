package tensor

import (
	"fmt"
	"math"
)

// Generator kernels: the two loops under RNG.PermPrefix's tail and
// RestoreRNG's replay, platform-dispatched like the wire kernels. ringAdd
// advances the source's ring a block at a time; permScan finds the first
// shuffle step in a block that may do something. Both take a block the
// way source.advance returns it — the first draw is the last word — and
// neither is a Backend method. Off amd64, under purego and without AVX2
// the scalar twins below run; the tests hold the assembly to them.

// ringAddGo computes dst[i] += src[i] for i descending, the order the
// draws are made in. src may overlap dst 273 words up, where a draw reads
// what the draw 273 before it wrote.
func ringAddGo(dst, src []int64) {
	src = src[:len(dst)]
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] += src[i]
	}
}

// permScanGo returns how many leading steps of blk provably leave a
// K-prefix untouched. Step s draws v = draw31(blk[len(blk)-1-s]) against
// bound b+s; it does nothing when v cannot be rejected by Int31n
// (v ≤ 2^31 − 1 − bound, which power-of-two bounds never need but may
// meet) and v mod bound ≥ k. The result is the first step failing either
// test, or len(blk).
func permScanGo(blk []int64, b, k int) int {
	for s := range blk {
		bound := uint32(b + s)
		v := draw31(blk[len(blk)-1-s])
		if v%bound < uint32(k) || v > math.MaxInt32-bound {
			return s
		}
	}
	return len(blk)
}

// checkPermScan is the only check permScan's kernel gets: a bound of at
// least 1, a non-negative prefix size, and no bound past 2^31 − 1.
func checkPermScan(n, b, k int) {
	if b < 1 || k < 0 || b+n > 1<<31 {
		panic(fmt.Sprintf("tensor: permScan of %d steps from bound %d, prefix %d", n, b, k))
	}
}
