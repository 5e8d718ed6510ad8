package tensor

import "fmt"

// Data-movement kernels around the layers' compute kernels: nn.Conv2D's
// float32 boundary (the minibatch and the incoming gradient into their
// zero-padded float32 buffers, the latter through a folded pool's
// backward pass) and the 2×2 backward pass of nn.MaxPool2D, ResNetMini's
// standalone pool. Each runs once per batch, never per plane or row, and
// moves every value unchanged or through one Go conversion, so the AVX2
// kernels reproduce the Go twins (NarrowPaddedGo, UnpoolPaddedGo,
// Unpool2x2Go) bit for bit, NaN payloads included. The twins are what
// runs without AVX2, off amd64, under purego and for widths the assembly
// does not take, and what the tests hold the assembly to.
//
// Layout: `planes` h×w planes back to back on the contiguous side, and
// the same planes with a border of one element all round, (h+2) × (w+2)
// each, on the padded side. Element (i, y, x) is
//
//	contiguous[(i·h + y)·w + x]  ↔  padded[(i·(h+2) + 1 + y)·(w+2) + 1 + x]
//
// and no kernel reads or writes a padded border.

// NarrowPadded writes src's planes into the interiors of dst's padded
// planes as float32, each element Go's float32(v): rounded to nearest
// even, ±Inf beyond float32's range, a NaN quieted with its sign and the
// top of its payload.
func NarrowPadded(dst []float32, src []float64, planes, h, w int) {
	checkPadded(len(src), len(dst), planes, h, w)
	narrowPadded(dst, src, planes, h, w)
}

// NarrowPaddedGo is NarrowPadded on the portable scalar kernel.
func NarrowPaddedGo(dst []float32, src []float64, planes, h, w int) {
	checkPadded(len(src), len(dst), planes, h, w)
	narrowPaddedGo(dst, src, planes, h, w)
}

// Unpool2x2 is the backward pass of MaxPool2x2 over a batch: each sample
// is `pairs` row pairs of width 2·ow in dx and pairs·ow outputs in g and
// am, am recording each window's winning tap as a flat index into its
// sample, or -1. Every cell of dx is written once, with
//
//	dx[c] = +0 + g[o]   where am[o] = c,  +0 elsewhere in o's window
//
// so a −0 gradient lands as +0. For argmax indices as MaxPool2x2 records
// them (each one of its window's taps, or -1) that is the loop it
// replaced, dx zeroed and then dx[am[o]] += g[o] for every am[o] ≥ 0.
func Unpool2x2(dx, g []float64, am []int, ow, pairs, batch int) {
	checkUnpool(len(dx), len(g), len(am), ow, pairs, batch)
	unpool2x2(dx, g, am, ow, pairs, batch)
}

// Unpool2x2Go is Unpool2x2 on the portable scalar kernel.
func Unpool2x2Go(dx, g []float64, am []int, ow, pairs, batch int) {
	checkUnpool(len(dx), len(g), len(am), ow, pairs, batch)
	unpool2x2Go(dx, g, am, ow, pairs, batch)
}

// UnpoolPadded is the backward pass of a pool folded into
// Winograd.ForwardPool, written straight into the float32 frame the
// convolution's gradient kernels read: g holds `planes` planes of oh × ow
// pooled gradients and taps their windows' tap codes (2·dy + dx, or −1),
// and dst receives planes of 2·oh × 2·ow cells padded by one, every
// interior cell written once with
//
//	dst[cell] = float32(+0 + g[o])   where taps[o] names the cell,  +0 elsewhere in o's window
//
// — Unpool2x2 and then NarrowPadded, in one pass. A code
// outside 0…3 routes nothing. The AVX2 kernel takes rows of a multiple of
// four windows and 2-window rows in pairs, as the zoo's pooled planes
// are; other shapes run the twin.
func UnpoolPadded(dst []float32, g []float64, taps []int32, planes, oh, ow int) {
	checkUnpoolPadded(len(dst), len(g), len(taps), planes, oh, ow)
	unpoolPadded(dst, g, taps, planes, oh, ow)
}

// UnpoolPaddedGo is UnpoolPadded on the portable scalar kernel.
func UnpoolPaddedGo(dst []float32, g []float64, taps []int32, planes, oh, ow int) {
	checkUnpoolPadded(len(dst), len(g), len(taps), planes, oh, ow)
	unpoolPaddedGo(dst, g, taps, planes, oh, ow)
}

// checkUnpoolPadded is the only bounds check UnpoolPadded gets.
func checkUnpoolPadded(dst, g, taps, planes, oh, ow int) {
	if min(planes, oh, ow) < 0 {
		panic(fmt.Sprintf("tensor: UnpoolPadded %d planes of %dx%d windows", planes, oh, ow))
	}
	checkLen("UnpoolPadded", "output gradient", g, planes*oh*ow)
	checkLen("UnpoolPadded", "tap codes", taps, planes*oh*ow)
	checkLen("UnpoolPadded", "padded side", dst, planes*(2*oh+2)*(2*ow+2))
}

// checkPadded is the only bounds check NarrowPadded gets: the contiguous
// side holds planes·h·w elements and the padded side
// planes·(h+2)·(w+2).
func checkPadded(flat, padded, planes, h, w int) {
	if min(planes, h, w) < 0 {
		panic(fmt.Sprintf("tensor: NarrowPadded %d planes of %dx%d", planes, h, w))
	}
	checkLen("NarrowPadded", "contiguous side", flat, planes*h*w)
	checkLen("NarrowPadded", "padded side", padded, planes*(h+2)*(w+2))
}

// checkLen panics unless a named operand has at least want elements.
func checkLen(name, what string, have, want int) {
	if have < want {
		panic(fmt.Sprintf("tensor: %s %s has %d elements, want %d", name, what, have, want))
	}
}

// checkUnpool is the only bounds check Unpool2x2 gets.
func checkUnpool(dx, g, am, ow, pairs, batch int) {
	if min(ow, pairs, batch) < 0 {
		panic(fmt.Sprintf("tensor: Unpool2x2 batch %d of %d row pairs, %d windows wide", batch, pairs, ow))
	}
	n := batch * pairs * ow
	checkLen("Unpool2x2", "input gradient", dx, 4*n)
	checkLen("Unpool2x2", "output gradient", g, n)
	checkLen("Unpool2x2", "argmax", am, n)
}

func narrowPaddedGo(dst []float32, src []float64, planes, h, w int) {
	pw := w + 2
	for i := 0; i < planes; i++ {
		for y := 0; y < h; y++ {
			row := dst[(i*(h+2)+1+y)*pw+1:][:w]
			for x, v := range src[(i*h+y)*w:][:w] {
				row[x] = float32(v)
			}
		}
	}
}

// unpool2x2Go is the loop the kernel replaced: dx zeroed, then each
// winner's gradient added. Zeroing first and scattering only the winners
// is the fastest portable form; a one-pass Go loop that writes every cell
// branches on each.
func unpool2x2Go(dx, g []float64, am []int, ow, pairs, batch int) {
	inLen, outLen := 4*ow*pairs, ow*pairs
	clear(dx[:batch*inLen])
	for b := 0; b < batch; b++ {
		d := dx[b*inLen : (b+1)*inLen]
		for o, idx := range am[b*outLen : (b+1)*outLen] {
			if idx >= 0 {
				d[idx] += g[b*outLen+o]
			}
		}
	}
}

func unpoolPaddedGo(dst []float32, g []float64, taps []int32, planes, oh, ow int) {
	pw := 2*ow + 2
	for r := 0; r < planes*oh; r++ {
		top := dst[(r/oh*(2*oh+2)+1+2*(r%oh))*pw+1:][:2*ow]
		bot := dst[(r/oh*(2*oh+2)+2+2*(r%oh))*pw+1:][:2*ow]
		for x, k := range taps[r*ow : (r+1)*ow] {
			var cells [4]float32 // the window's taps in (dy, dx) order
			if uint32(k) < 4 {
				cells[k] = float32(0 + g[r*ow+x])
			}
			top[2*x], top[2*x+1], bot[2*x], bot[2*x+1] = cells[0], cells[1], cells[2], cells[3]
		}
	}
}
