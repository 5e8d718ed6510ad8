package tensor

import (
	"strings"
	"testing"
)

// TestTransposeToMatchesScalar holds the dispatched block transpose to the
// scalar loop over shapes on both sides of the 4×4 block, ragged edges
// (the kernel's moved-back last block) and strided windows, and checks
// that destination elements outside the block are left alone.
func TestTransposeToMatchesScalar(t *testing.T) {
	rng := NewRNG(17)
	for _, rows := range []int{1, 3, 4, 5, 8, 12, 13, 16} {
		for _, cols := range []int{1, 2, 4, 6, 7, 16, 27, 35, 64} {
			for _, slack := range []int{0, 3} {
				srcStride, dstStride := cols+slack, rows+2*slack
				src := rng.Uniform(-1, 1, rows*srcStride).Data
				got := rng.Uniform(-1, 1, cols*dstStride).Data
				want := append([]float64(nil), got...)
				TransposeTo(got, src, rows, cols, srcStride, dstStride)
				transposeGo(want, src, rows, cols, srcStride, dstStride)
				equalBits(t, "transpose", got, want)
			}
		}
	}
}

// TestConvDirectRejectsUncheckedTables: the wrappers are the only bounds
// check the assembly gets, so a table that reaches past the padded
// sample, a short output, a weight matrix not padded to the channel
// block (or, for the input gradient, not the row-major one) must all
// panic in Go. (The kernels' arithmetic is pinned in nn,
// against the lowering they replace: TestConvDirectMatchesLowered.)
func TestConvDirectRejectsUncheckedTables(t *testing.T) {
	const batch, sampleLen, outC, spatial, taps = 2, 16, 3, 4, 2
	oc8 := ConvLanes(outC)
	in := make([]float64, batch*sampleLen)
	tapOff, posBase := []int{0, 1}, []int{0, 1, 4, 5}
	wt := make([]float64, taps*oc8)
	bias := make([]float64, outC)
	out := make([]float64, batch*outC*spatial)
	gt := make([]float64, (taps+1)*oc8)
	dyt := make([]float64, batch*spatial*oc8)
	w := make([]float64, outC*taps)
	dy := make([]float64, batch*outC*spatial)
	ConvForward(out, in, wt, bias, tapOff, posBase, batch, sampleLen, outC) // the baseline is accepted
	ConvGradParams(gt, in, dyt, tapOff, posBase, batch, sampleLen, outC)
	ConvGradInput(in, dy, w, tapOff, posBase, batch, sampleLen, outC)

	for _, tc := range []struct {
		name, want string
		call       func()
	}{
		{"tap past the sample", "tables reach", func() {
			ConvForward(out, in, wt, bias, []int{0, 11}, posBase, batch, sampleLen, outC)
		}},
		{"position past the sample", "tables reach", func() {
			ConvGradParams(gt, in, dyt, tapOff, []int{0, 1, 4, 15}, batch, sampleLen, outC)
		}},
		{"negative offset", "negative", func() {
			ConvForward(out, in, wt, bias, []int{-1, 0}, posBase, batch, sampleLen, outC)
		}},
		{"short input", "input has", func() {
			ConvForward(out, in[:len(in)-1], wt, bias, tapOff, posBase, batch, sampleLen, outC)
		}},
		{"short output", "output has", func() {
			ConvForward(out[:len(out)-1], in, wt, bias, tapOff, posBase, batch, sampleLen, outC)
		}},
		{"weights not padded to the block", "lanes", func() {
			ConvForward(out, in, make([]float64, taps*outC), bias, tapOff, posBase, batch, sampleLen, outC)
		}},
		{"gradient not padded to the block", "lanes", func() {
			ConvGradParamsGo(make([]float64, (taps+1)*outC), in, dyt, tapOff, posBase, batch, sampleLen, outC)
		}},
		{"short output gradient", "output gradient has", func() {
			ConvGradParams(gt, in, dyt[:len(dyt)-1], tapOff, posBase, batch, sampleLen, outC)
		}},
		{"input-gradient tap past the sample", "tables reach", func() {
			ConvGradInput(in, dy, w, []int{0, 11}, posBase, batch, sampleLen, outC)
		}},
		{"input-gradient position past the sample", "tables reach", func() {
			ConvGradInputGo(in, dy, w, tapOff, []int{0, 1, 4, 15}, batch, sampleLen, outC)
		}},
		{"short padded gradient", "input has", func() {
			ConvGradInput(in[:len(in)-1], dy, w, tapOff, posBase, batch, sampleLen, outC)
		}},
		{"weights in the channel-lane layout", "weights have", func() {
			ConvGradInput(in, dy, wt, tapOff, posBase, batch, sampleLen, outC)
		}},
		{"short incoming gradient", "output gradient has", func() {
			ConvGradInputGo(in, dy[:len(dy)-1], w, tapOff, posBase, batch, sampleLen, outC)
		}},
		{"transpose past the source", "does not fit", func() {
			TransposeTo(make([]float64, 16), make([]float64, 15), 4, 4, 4, 4)
		}},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("%s: panic %q, want one mentioning %q", tc.name, msg, tc.want)
				}
			}()
			tc.call()
		}()
	}
}
