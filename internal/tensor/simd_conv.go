package tensor

import "fmt"

// Direct convolution kernels: nn.Conv2D's forward pass, parameter
// gradients and input gradient computed straight from zero-padded
// samples, with no lowered im2col matrix in between. Lanes are output
// channels in the first two and output positions in the third.
//
// The caller owns two index tables per geometry. With `in` holding batch
// zero-padded samples of sampleLen elements each,
//
//	tapOff[p]    = offset of tap p = (ic, kh, kw) inside one padded sample
//	posBase[pos] = offset of output position pos's window origin
//
// so the element the lowered matrix called cols[p][b, pos] is
// in[b*sampleLen + posBase[pos] + tapOff[p]] — for any stride, padding
// and kernel size; the kernels know no geometry. Padding is real zeros in
// the buffer: an out-of-image tap is multiplied like every other, exactly
// as cols' zero was (0·Inf is still NaN).
//
// Weights and gradients cross in channel-lane layout, oc8 = ConvLanes(outC)
// columns per row with the columns past outC unused:
//
//	wt  (taps × oc8)      wt[p*oc8+oc] = W[oc][p], zero past outC
//	gt  ((taps+1) × oc8)  rows 0..taps-1 are dWᵀ, row taps is dB
//	dyt (batch × spatial × oc8)  dyt[b][pos][oc] = dLoss/dOut[b][oc][pos]
//
// TransposeTo moves data between these and the row-major layouts.
//
// Like DotTile these are platform-dispatched package functions, not
// Backend methods: the accumulation chains below are the contract, and a
// new method would break every Backend implemented outside this package.
// The Go twins (ConvForwardGo, ConvGradParamsGo, ConvGradInputGo) are
// what runs without AVX2, off amd64 and under purego, and what the tests
// hold the assembly to.

// convLanes is the channel block of the kernels: two ymm registers.
const convLanes = 8

// ConvLanes returns outC rounded up to the kernels' channel block — the
// row length of the wt, gt and dyt layouts.
func ConvLanes(outC int) int { return (outC + convLanes - 1) &^ (convLanes - 1) }

// ConvForward computes the convolution of every sample:
//
//	out[b][oc][pos] = (Σ_p in[b][posBase[pos]+tapOff[p]] · wt[p][oc]) + bias[oc]
//
// with the sum running over p ascending from +0, one multiply then one
// add per tap and no fused multiply-add, and the bias the last add — per
// element the chain of Im2ColTo + MatMulTo + bias. out is sample-major
// (batch × outC·spatial).
func ConvForward(out, in, wt, bias []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	checkConvForward(out, wt, bias, in, tapOff, posBase, batch, sampleLen, outC)
	convForward(out, in, wt, bias, tapOff, posBase, batch, sampleLen, outC)
}

// ConvForwardGo is ConvForward on the portable scalar kernel.
func ConvForwardGo(out, in, wt, bias []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	checkConvForward(out, wt, bias, in, tapOff, posBase, batch, sampleLen, outC)
	convForwardGo(out, in, wt, bias, tapOff, posBase, batch, sampleLen, outC)
}

// ConvGradParams accumulates the parameter gradients of every sample into
// gt, samples ascending. Per sample b and cell (oc, p):
//
//	s[pos%4] += dyt[b][pos][oc] · in[b][posBase[pos]+tapOff[p]]   pos ascending
//	gt[p][oc] += ((s0 + s1) + s2) + s3
//
// where a spatial%4 tail folds into s0 — position class pos%4 is partial
// sum stream pos%4 of the transposed-B dot kernel, so each sample adds
// what MatMulTransBAcc(dW, dy_b, cols_b) added. The bias row takes the
// serial sum: gt[taps][oc] += Σ_pos dyt[b][pos][oc], from +0, pos
// ascending.
func ConvGradParams(gt, in, dyt []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	checkConvGrad(gt, dyt, in, tapOff, posBase, batch, sampleLen, outC)
	convGradParams(gt, in, dyt, tapOff, posBase, batch, sampleLen, outC)
}

// ConvGradParamsGo is ConvGradParams on the portable scalar kernel.
func ConvGradParamsGo(gt, in, dyt []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	checkConvGrad(gt, dyt, in, tapOff, posBase, batch, sampleLen, outC)
	convGradParamsGo(gt, in, dyt, tapOff, posBase, batch, sampleLen, outC)
}

// ConvGradInput computes dLoss/dInput of every sample in the padded
// layout `in` has above, onto a dpad it zeroes first:
//
//	dpad[b][posBase[pos]+tapOff[p]] += Σ_oc w[oc][p] · dy[b][oc][pos]
//
// for p ascending and, within a tap, pos ascending. A tap reaches a cell
// from at most one position, so per cell the chain is one add per tap,
// taps ascending from +0, and each term is itself a chain over oc
// ascending from +0, one multiply then one add and no fused multiply-add
// — per element the chain of MatMulTransATo (wᵀ·dy, lowered) + Col2ImTo.
// A tap that falls outside the image for some cell is skipped there, as
// col2im skips it, not multiplied by a zero: its only positions land on
// the padding border, which absorbs them and which the caller drops when
// it copies the interiors out. dy is the incoming gradient as the layer
// receives it, sample-major (batch × outC·spatial), and w the row-major
// (outC × taps) weights, read in place.
func ConvGradInput(dpad, dy, w []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	checkConvGradInput(dpad, dy, w, tapOff, posBase, batch, sampleLen, outC)
	convGradInput(dpad, dy, w, tapOff, posBase, batch, sampleLen, outC)
}

// ConvGradInputGo is ConvGradInput on the portable scalar kernel.
func ConvGradInputGo(dpad, dy, w []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	checkConvGradInput(dpad, dy, w, tapOff, posBase, batch, sampleLen, outC)
	convGradInputGo(dpad, dy, w, tapOff, posBase, batch, sampleLen, outC)
}

// TransposeTo writes the transpose of a rows×cols block:
// dst[c*dstStride+r] = src[r*srcStride+c]. The strides are row lengths in
// elements, so either side may be a window of a wider matrix; dst
// elements outside the block are left alone. dst must not overlap src.
func TransposeTo(dst, src []float64, rows, cols, srcStride, dstStride int) {
	if rows <= 0 || cols <= 0 || srcStride < cols || dstStride < rows ||
		len(src) < (rows-1)*srcStride+cols || len(dst) < (cols-1)*dstStride+rows {
		panic(fmt.Sprintf("tensor: TransposeTo %dx%d block with strides %d -> %d does not fit src %d / dst %d",
			rows, cols, srcStride, dstStride, len(src), len(dst)))
	}
	transpose(dst, src, rows, cols, srcStride, dstStride)
}

// checkConv validates what the kernels share. Together with the
// per-kernel length checks that call it, it is the only bounds check the
// assembly gets:
// every index it forms is posBase[pos]+tapOff[p] inside one sample.
func checkConv(name string, in []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	if batch < 0 || outC <= 0 || len(tapOff) == 0 || len(posBase) == 0 {
		panic(fmt.Sprintf("tensor: %s batch %d, %d channels, %d taps, %d positions", name, batch, outC, len(tapOff), len(posBase)))
	}
	maxTap, maxPos := 0, 0
	for _, off := range tapOff {
		if off < 0 {
			panic(fmt.Sprintf("tensor: %s negative tap offset %d", name, off))
		}
		if off > maxTap {
			maxTap = off
		}
	}
	for _, base := range posBase {
		if base < 0 {
			panic(fmt.Sprintf("tensor: %s negative position base %d", name, base))
		}
		if base > maxPos {
			maxPos = base
		}
	}
	if maxTap+maxPos >= sampleLen {
		panic(fmt.Sprintf("tensor: %s tables reach offset %d of a %d-element padded sample", name, maxTap+maxPos, sampleLen))
	}
	if len(in) < batch*sampleLen {
		panic(fmt.Sprintf("tensor: %s input has %d elements, %d samples of %d want %d", name, len(in), batch, sampleLen, batch*sampleLen))
	}
}

func checkConvForward(out, wt, bias, in []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	checkConv("ConvForward", in, tapOff, posBase, batch, sampleLen, outC)
	taps, spatial := len(tapOff), len(posBase)
	if len(wt) != taps*ConvLanes(outC) {
		panic(fmt.Sprintf("tensor: ConvForward weights have %d elements, want %d taps x %d lanes", len(wt), taps, ConvLanes(outC)))
	}
	if len(bias) < outC {
		panic(fmt.Sprintf("tensor: ConvForward bias has %d elements, want %d", len(bias), outC))
	}
	if len(out) < batch*outC*spatial {
		panic(fmt.Sprintf("tensor: ConvForward output has %d elements, want %d", len(out), batch*outC*spatial))
	}
}

func checkConvGrad(gt, dyt, in []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	checkConv("ConvGradParams", in, tapOff, posBase, batch, sampleLen, outC)
	taps, spatial := len(tapOff), len(posBase)
	if len(gt) != (taps+1)*ConvLanes(outC) {
		panic(fmt.Sprintf("tensor: ConvGradParams gradient has %d elements, want %d rows x %d lanes", len(gt), taps+1, ConvLanes(outC)))
	}
	if len(dyt) < batch*spatial*ConvLanes(outC) {
		panic(fmt.Sprintf("tensor: ConvGradParams output gradient has %d elements, want %d", len(dyt), batch*spatial*ConvLanes(outC)))
	}
}

func checkConvGradInput(dpad, dy, w []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	checkConv("ConvGradInput", dpad, tapOff, posBase, batch, sampleLen, outC)
	taps, spatial := len(tapOff), len(posBase)
	if len(w) != outC*taps {
		panic(fmt.Sprintf("tensor: ConvGradInput weights have %d elements, want %d channels x %d taps", len(w), outC, taps))
	}
	if len(dy) < batch*outC*spatial {
		panic(fmt.Sprintf("tensor: ConvGradInput output gradient has %d elements, want %d", len(dy), batch*outC*spatial))
	}
}

func convForwardGo(out, in, wt, bias []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	oc8 := ConvLanes(outC)
	spatial := len(posBase)
	for b := 0; b < batch; b++ {
		img := in[b*sampleLen : (b+1)*sampleLen]
		o := out[b*outC*spatial : (b+1)*outC*spatial]
		// Four channels share each activation load; wt's padding makes the
		// block readable past outC, and those sums are dropped.
		for oc := 0; oc < outC; oc += 4 {
			for pos, base := range posBase {
				win := img[base:]
				var s0, s1, s2, s3 float64
				for p, off := range tapOff {
					v := win[off]
					w := wt[p*oc8+oc : p*oc8+oc+4 : p*oc8+oc+4]
					s0 += v * w[0]
					s1 += v * w[1]
					s2 += v * w[2]
					s3 += v * w[3]
				}
				for i, s := range [4]float64{s0, s1, s2, s3} {
					if oc+i < outC {
						o[(oc+i)*spatial+pos] = s + bias[oc+i]
					}
				}
			}
		}
	}
}

func convGradParamsGo(gt, in, dyt []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	oc8 := ConvLanes(outC)
	taps, spatial := len(tapOff), len(posBase)
	for b := 0; b < batch; b++ {
		img := in[b*sampleLen : (b+1)*sampleLen]
		dy := dyt[b*spatial*oc8 : (b+1)*spatial*oc8]
		for oc := 0; oc < outC; oc++ {
			s := 0.0
			for pos := 0; pos < spatial; pos++ {
				s += dy[pos*oc8+oc]
			}
			gt[taps*oc8+oc] += s
			for p, off := range tapOff {
				win := img[off:]
				var s0, s1, s2, s3 float64
				pos := 0
				for ; pos+4 <= spatial; pos += 4 {
					pb := posBase[pos : pos+4 : pos+4]
					s0 += dy[pos*oc8+oc] * win[pb[0]]
					s1 += dy[(pos+1)*oc8+oc] * win[pb[1]]
					s2 += dy[(pos+2)*oc8+oc] * win[pb[2]]
					s3 += dy[(pos+3)*oc8+oc] * win[pb[3]]
				}
				for ; pos < spatial; pos++ {
					s0 += dy[pos*oc8+oc] * win[posBase[pos]]
				}
				gt[p*oc8+oc] += s0 + s1 + s2 + s3
			}
		}
	}
}

func convGradInputGo(dpad, dy, w []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	taps, spatial := len(tapOff), len(posBase)
	// One tap's terms for a run of positions: positions innermost, so the
	// gradient rows stream and the weight is a scalar.
	var terms [64]float64
	for b := 0; b < batch; b++ {
		pad := dpad[b*sampleLen : (b+1)*sampleLen]
		clear(pad)
		g := dy[b*outC*spatial : (b+1)*outC*spatial]
		for p, off := range tapOff {
			cells := pad[off:]
			for pos0 := 0; pos0 < spatial; pos0 += len(terms) {
				t := terms[:min(len(terms), spatial-pos0)]
				clear(t)
				for oc := 0; oc < outC; oc++ {
					wv := w[oc*taps+p]
					for i, v := range g[oc*spatial+pos0 : oc*spatial+pos0+len(t)] {
						t[i] += wv * v
					}
				}
				for i, v := range t {
					cells[posBase[pos0+i]] += v
				}
			}
		}
	}
}

func transposeGo(dst, src []float64, rows, cols, srcStride, dstStride int) {
	for r := 0; r < rows; r++ {
		for c, v := range src[r*srcStride : r*srcStride+cols] {
			dst[c*dstStride+r] = v
		}
	}
}
