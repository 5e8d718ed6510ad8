package tensor

import "fmt"

// Direct convolution kernels: nn.Conv2D's forward pass, parameter
// gradients and input gradient computed straight from zero-padded
// samples, with no lowered im2col matrix in between. They compute in
// float32, eight lanes to a ymm register; what crosses the layer boundary
// — the output, the input gradient, the bias — stays float64.
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
// Weights cross tap-major, w[p*outC+oc] = W[oc][p], so the channels of
// one tap are contiguous; output gradients cross in the layer's own
// sample-major layout, dy[b][oc][pos].
//
// Lanes are eight output positions — two groups of four whose window
// origins are consecutive, so each group is one 16-byte load under any
// tap. convVector says which geometries that takes: stride 1 and output
// rows a multiple of four wide, spatial a multiple of sixteen, and at
// least one eight-channel block. Every other geometry runs the twin.
//
// Like DotTile these are platform-dispatched package functions, not
// Backend methods: the accumulation chains below are the contract, and a
// new method would break every Backend implemented outside this package.
// The Go twins (ConvForwardGo, ConvGradParamsGo, ConvGradInputGo) are
// what runs without AVX2, off amd64 and under purego, and what the tests
// hold the assembly to.

// convLanes is the channel block of the forward and parameter-gradient
// kernels: eight accumulators.
const convLanes = 8

// ConvForward computes the convolution of every sample:
//
//	out[b][oc][pos] = float64(Σ_p in[b][posBase[pos]+tapOff[p]] · w[p][oc]) + bias[oc]
//
// with the float32 sum running over p ascending from +0, one multiply
// then one add per tap and no fused multiply-add; the bias is added in
// float64 after the conversion. out is sample-major (batch × outC·spatial).
func ConvForward(out []float64, in, w []float32, bias []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	checkConvForward(out, in, w, bias, tapOff, posBase, batch, sampleLen, outC)
	convForward(out, in, w, bias, tapOff, posBase, batch, sampleLen, outC)
}

// ConvForwardGo is ConvForward on the portable scalar kernel.
func ConvForwardGo(out []float64, in, w []float32, bias []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	checkConvForward(out, in, w, bias, tapOff, posBase, batch, sampleLen, outC)
	convForwardGo(out, in, w, bias, tapOff, posBase, batch, sampleLen, outC)
}

// ConvGradParams writes the batch's parameter-gradient sums: row p < taps
// of sums ((taps+1) × outC) is tap p's column of dW, row taps is dB. Per
// cell (oc, p) eight float32 streams, stream l taking the positions with
// pos%8 = l,
//
//	s[pos%8] += in[b][posBase[pos]+tapOff[p]] · dy[b][oc][pos]   b, then pos ascending
//	sums[p][oc] = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
//
// each from +0, one multiply then one add; the dB row is the same chain
// with dy alone as the term. The sums overwrite; the caller adds them to
// its gradients.
func ConvGradParams(sums, in, dy []float32, tapOff, posBase []int, batch, sampleLen, outC int) {
	checkConvGrad(sums, in, dy, tapOff, posBase, batch, sampleLen, outC)
	convGradParams(sums, in, dy, tapOff, posBase, batch, sampleLen, outC)
}

// ConvGradParamsGo is ConvGradParams on the portable scalar kernel.
func ConvGradParamsGo(sums, in, dy []float32, tapOff, posBase []int, batch, sampleLen, outC int) {
	checkConvGrad(sums, in, dy, tapOff, posBase, batch, sampleLen, outC)
	convGradParamsGo(sums, in, dy, tapOff, posBase, batch, sampleLen, outC)
}

// ConvGradInput computes dLoss/dInput of every sample in the padded
// layout `in` has above, onto a float64 dpad it zeroes first:
//
//	dpad[b][posBase[pos]+tapOff[p]] += float64(((t0 + t1) + t2) + t3)
//	t[oc%4] += w[p][oc] · dy[b][oc][pos]   oc ascending, each from +0
//
// in float32 up to the conversion, one multiply then one add and no fused
// multiply-add, for p ascending. A tap reaches a cell from at most one
// position, so per cell the float64 chain is one add per tap, taps
// ascending from +0. A tap that falls outside the image for some cell is
// skipped there, as col2im skips it, not multiplied by a zero: its only
// positions land on the padding border, which absorbs them and which the
// caller drops when it copies the interiors out.
func ConvGradInput(dpad []float64, dy, w []float32, tapOff, posBase []int, batch, sampleLen, outC int) {
	checkConvGradInput(dpad, dy, w, tapOff, posBase, batch, sampleLen, outC)
	convGradInput(dpad, dy, w, tapOff, posBase, batch, sampleLen, outC)
}

// ConvGradInputGo is ConvGradInput on the portable scalar kernel.
func ConvGradInputGo(dpad []float64, dy, w []float32, tapOff, posBase []int, batch, sampleLen, outC int) {
	checkConvGradInput(dpad, dy, w, tapOff, posBase, batch, sampleLen, outC)
	convGradInputGo(dpad, dy, w, tapOff, posBase, batch, sampleLen, outC)
}

// checkConv validates what the kernels share. Together with the
// per-kernel length checks that call it, it is the only bounds check the
// assembly gets: every index it forms is posBase[pos]+tapOff[p] inside
// one sample of the inLen-element padded batch.
func checkConv(name string, inLen int, tapOff, posBase []int, batch, sampleLen, outC int) {
	if batch < 0 || outC <= 0 || len(tapOff) == 0 || len(posBase) == 0 {
		panic(fmt.Sprintf("tensor: %s batch %d, %d channels, %d taps, %d positions", name, batch, outC, len(tapOff), len(posBase)))
	}
	maxTap, maxPos := 0, 0
	for _, off := range tapOff {
		if off < 0 {
			panic(fmt.Sprintf("tensor: %s negative tap offset %d", name, off))
		}
		maxTap = max(maxTap, off)
	}
	for _, base := range posBase {
		if base < 0 {
			panic(fmt.Sprintf("tensor: %s negative position base %d", name, base))
		}
		maxPos = max(maxPos, base)
	}
	if maxTap+maxPos >= sampleLen {
		panic(fmt.Sprintf("tensor: %s tables reach offset %d of a %d-element padded sample", name, maxTap+maxPos, sampleLen))
	}
	if inLen < batch*sampleLen {
		panic(fmt.Sprintf("tensor: %s input has %d elements, %d samples of %d want %d", name, inLen, batch, sampleLen, batch*sampleLen))
	}
}

// checkLen panics unless a named operand has at least want elements.
func checkLen(name, what string, have, want int) {
	if have < want {
		panic(fmt.Sprintf("tensor: %s %s has %d elements, want %d", name, what, have, want))
	}
}

func checkConvForward(out []float64, in, w []float32, bias []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	checkConv("ConvForward", len(in), tapOff, posBase, batch, sampleLen, outC)
	if len(w) != len(tapOff)*outC {
		panic(fmt.Sprintf("tensor: ConvForward weights have %d elements, want %d taps x %d channels", len(w), len(tapOff), outC))
	}
	checkLen("ConvForward", "bias", len(bias), outC)
	checkLen("ConvForward", "output", len(out), batch*outC*len(posBase))
}

func checkConvGrad(sums, in, dy []float32, tapOff, posBase []int, batch, sampleLen, outC int) {
	checkConv("ConvGradParams", len(in), tapOff, posBase, batch, sampleLen, outC)
	if len(sums) != (len(tapOff)+1)*outC {
		panic(fmt.Sprintf("tensor: ConvGradParams sums have %d elements, want %d rows x %d channels", len(sums), len(tapOff)+1, outC))
	}
	checkLen("ConvGradParams", "output gradient", len(dy), batch*outC*len(posBase))
}

func checkConvGradInput(dpad []float64, dy, w []float32, tapOff, posBase []int, batch, sampleLen, outC int) {
	checkConv("ConvGradInput", len(dpad), tapOff, posBase, batch, sampleLen, outC)
	if len(w) != len(tapOff)*outC {
		panic(fmt.Sprintf("tensor: ConvGradInput weights have %d elements, want %d taps x %d channels", len(w), len(tapOff), outC))
	}
	checkLen("ConvGradInput", "output gradient", len(dy), batch*outC*len(posBase))
}

// convVector reports whether the vector kernels take a geometry: at
// least one eight-channel block, and positions in groups of four whose
// window origins are consecutive (stride 1, output rows a multiple of
// four wide), sixteen or more at a time.
func convVector(posBase []int, outC int) bool {
	if outC < convLanes || len(posBase)%16 != 0 {
		return false
	}
	for i := 0; i < len(posBase); i += 4 {
		q := posBase[i : i+4 : i+4]
		if q[1] != q[0]+1 || q[2] != q[0]+2 || q[3] != q[0]+3 {
			return false
		}
	}
	return true
}

func convForwardGo(out []float64, in, w []float32, bias []float64, tapOff, posBase []int, batch, sampleLen, outC int) {
	spatial := len(posBase)
	for b := 0; b < batch; b++ {
		img := in[b*sampleLen : (b+1)*sampleLen]
		o := out[b*outC*spatial : (b+1)*outC*spatial]
		for oc := 0; oc < outC; oc++ {
			for pos, base := range posBase {
				win := img[base:]
				var s float32
				for p, off := range tapOff {
					s += float32(win[off] * w[p*outC+oc])
				}
				o[oc*spatial+pos] = float64(s) + bias[oc]
			}
		}
	}
}

func convGradParamsGo(sums, in, dy []float32, tapOff, posBase []int, batch, sampleLen, outC int) {
	taps, spatial := len(tapOff), len(posBase)
	for oc := 0; oc < outC; oc++ {
		// Row taps is dB: the same streams over dy alone.
		for p := 0; p <= taps; p++ {
			var s [8]float32
			for b := 0; b < batch; b++ {
				img := in[b*sampleLen : (b+1)*sampleLen]
				g := dy[(b*outC+oc)*spatial : (b*outC+oc+1)*spatial]
				if p == taps {
					for pos, v := range g {
						s[pos%8] += v
					}
					continue
				}
				win := img[tapOff[p]:]
				for pos, v := range g {
					s[pos%8] += float32(win[posBase[pos]] * v)
				}
			}
			sums[p*outC+oc] = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
		}
	}
}

func convGradInputGo(dpad []float64, dy, w []float32, tapOff, posBase []int, batch, sampleLen, outC int) {
	spatial := len(posBase)
	// One tap's four streams for a run of positions: positions innermost,
	// so the gradient rows stream and the weight is a scalar.
	var t [4][16]float32
	for b := 0; b < batch; b++ {
		pad := dpad[b*sampleLen : (b+1)*sampleLen]
		clear(pad)
		g := dy[b*outC*spatial : (b+1)*outC*spatial]
		for p, off := range tapOff {
			cells := pad[off:]
			for pos0 := 0; pos0 < spatial; pos0 += len(t[0]) {
				n := min(len(t[0]), spatial-pos0)
				t = [4][16]float32{}
				for oc := 0; oc < outC; oc++ {
					wv := w[p*outC+oc]
					s := t[oc%4][:n]
					for i, v := range g[oc*spatial+pos0 : oc*spatial+pos0+n] {
						s[i] += float32(wv * v)
					}
				}
				for i := 0; i < n; i++ {
					cells[posBase[pos0+i]] += float64(((t[0][i] + t[1][i]) + t[2][i]) + t[3][i])
				}
			}
		}
	}
}
