package nn

import (
	"fmt"
	"math"
	"testing"

	"fedcross/internal/tensor"
)

// loweredConv is the per-sample lowering Conv2D's direct kernels must
// reproduce to the bit, written out from primitives: Im2ColTo + MatMulTo +
// bias forward; one MatMulTransBAcc per sample for dW; the serial
// per-sample row sum for dB; MatMulTransATo + Col2ImTo for dx. dW and dB
// accumulate onto the values they come in with.
func loweredConv(g tensor.ConvGeom, outC int, w, bias, x, grad, dW, dB *tensor.Tensor) (out, dx *tensor.Tensor) {
	batch := x.Shape[0]
	rows := g.InC * g.KH * g.KW
	spatial := g.OutH() * g.OutW()
	inLen := g.InC * g.InH * g.InW
	out = tensor.Zeros(batch, outC*spatial)
	dx = tensor.Zeros(batch, inLen)
	cols := tensor.Zeros(rows, spatial)
	y := tensor.Zeros(outC, spatial)
	dcols := tensor.Zeros(rows, spatial)
	for b := 0; b < batch; b++ {
		tensor.Im2ColTo(cols, tensor.New(x.Data[b*inLen:(b+1)*inLen], g.InC, g.InH, g.InW), g)
		tensor.MatMulTo(y, w, cols)
		for oc := 0; oc < outC; oc++ {
			for j := 0; j < spatial; j++ {
				out.Data[(b*outC+oc)*spatial+j] = y.Data[oc*spatial+j] + bias.Data[oc]
			}
		}
		dy := tensor.New(grad.Data[b*outC*spatial:(b+1)*outC*spatial], outC, spatial)
		tensor.MatMulTransBAcc(dW, dy, cols)
		for oc := 0; oc < outC; oc++ {
			s := 0.0
			for _, v := range dy.Data[oc*spatial : (oc+1)*spatial] {
				s += v
			}
			dB.Data[oc] += s
		}
		tensor.MatMulTransATo(dcols, w, dy)
		tensor.Col2ImTo(tensor.New(dx.Data[b*inLen:(b+1)*inLen], g.InC, g.InH, g.InW), dcols, g)
	}
	return out, dx
}

// sameBits compares two slices bit for bit, any NaN equal to any NaN.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s element %d: %v (%#x), lowered %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// sprinkle overwrites about one element in sixteen with a value a
// shortcut would get wrong: signed zeros (0 + -0), denormals, ±Inf
// (times a padding zero), NaN.
func sprinkle(rng *tensor.RNG, data []float64) {
	specials := []float64{math.Copysign(0, -1), 0, 5e-324, -2.5e-310, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := range data {
		if rng.Intn(16) == 0 {
			data[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// TestConvDirectMatchesLowered pins the direct kernels — the dispatched
// ones and, on every run, their scalar twins — to the per-sample
// lowering: outputs, dW, dB and dx Float64bits-equal over kernel shapes,
// strides, paddings, planes with spatial%4 of 0..3, channel counts on
// both sides of the eight-lane block, batches that grow and then shrink
// through the same layer, gradients accumulating onto non-zero values,
// and inputs carrying signed zeros, denormals, infinities and NaN.
func TestConvDirectMatchesLowered(t *testing.T) {
	rng := tensor.NewRNG(15)
	kernels := []struct {
		name string
		fwd  convForwardFunc
		grad convGradFunc
	}{
		{"dispatched", tensor.ConvForward, tensor.ConvGradParams},
		{"scalar", tensor.ConvForwardGo, tensor.ConvGradParamsGo},
	}
	check := func(g tensor.ConvGeom, outC int, batches []int, special bool) {
		name := fmt.Sprintf("%+v outC=%d special=%v", g, outC, special)
		ref := NewConv2D(g, outC, rng)
		ref.B = rng.Uniform(-1, 1, outC)
		if special {
			sprinkle(rng, ref.W.Data)
			sprinkle(rng, ref.B.Data)
		}
		layers := make([]*Conv2D, len(kernels))
		for i := range layers {
			layers[i] = NewConv2D(g, outC, rng)
			layers[i].W, layers[i].B = ref.W.Clone(), ref.B.Clone()
		}
		for _, batch := range batches {
			x := rng.Uniform(-1, 1, batch, ref.InFeatures())
			grad := rng.Uniform(-1, 1, batch, ref.OutFeatures())
			if special {
				sprinkle(rng, x.Data)
				sprinkle(rng, grad.Data)
			}
			dW0 := rng.Uniform(-1, 1, ref.dW.Shape...)
			dB0 := rng.Uniform(-1, 1, outC)
			wantDW, wantDB := dW0.Clone(), dB0.Clone()
			wantOut, wantDx := loweredConv(g, outC, ref.W, ref.B, x, grad, wantDW, wantDB)
			for i, k := range kernels {
				c := layers[i]
				what := fmt.Sprintf("%s %s batch %d", k.name, name, batch)
				sameBits(t, what+" out", c.forward(x, k.fwd).Data, wantOut.Data)
				copy(c.dW.Data, dW0.Data)
				copy(c.dB.Data, dB0.Data)
				c.backwardParams(grad, k.grad)
				sameBits(t, what+" dW", c.dW.Data, wantDW.Data)
				sameBits(t, what+" dB", c.dB.Data, wantDB.Data)
			}
			// The public pair on the dispatched layer: Backward adds the
			// same parameter gradients and returns the lowering's dx.
			c := layers[0]
			copy(c.dW.Data, dW0.Data)
			copy(c.dB.Data, dB0.Data)
			sameBits(t, name+" Forward", c.Forward(x, true).Data, wantOut.Data)
			sameBits(t, name+" dx", c.Backward(grad).Data, wantDx.Data)
			sameBits(t, name+" Backward dW", c.dW.Data, wantDW.Data)
			sameBits(t, name+" Backward dB", c.dB.Data, wantDB.Data)
		}
	}

	kernelShapes := [][2]int{{1, 1}, {3, 3}, {5, 3}}
	planes := [][2]int{{4, 4}, {5, 7}, {8, 8}}
	n := 0
	for _, k := range kernelShapes {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				for _, pl := range planes {
					for _, inC := range []int{1, 3, 8} {
						for _, outC := range []int{1, 8, 12, 16} {
							g := tensor.ConvGeom{InC: inC, InH: pl[0], InW: pl[1], KH: k[0], KW: k[1], Stride: stride, Pad: pad}
							if g.Validate() != nil {
								continue
							}
							// A training-sized batch on a third of the
							// grid; growth and a shorter batch everywhere.
							batches := []int{1, 3, 2}
							if n%3 == 0 {
								batches = []int{1, 3, 50, 7}
							}
							check(g, outC, batches, n%2 == 1)
							n++
						}
					}
				}
			}
		}
	}
	if n < 500 {
		t.Fatalf("only %d geometries checked", n)
	}
}

// TestMaxPoolNoWinnerBackward: a window that is all NaN records argmax -1
// and must route no gradient — it used to index dst[-1]. Width 2 takes
// the scalar 2×2 path, width 8 the vector kernel where there is one, and
// kernel 3 the generic loop.
func TestMaxPoolNoWinnerBackward(t *testing.T) {
	for _, tc := range []struct{ h, w, k int }{{2, 2, 2}, {2, 8, 2}, {3, 3, 3}} {
		p := NewMaxPool2D(1, tc.h, tc.w, tc.k)
		x := tensor.Zeros(1, tc.h*tc.w)
		for i := range x.Data {
			x.Data[i] = math.NaN()
		}
		out := p.Forward(x, true)
		for i, v := range out.Data {
			if !math.IsInf(v, -1) || p.argmax[i] != -1 {
				t.Fatalf("%+v: window %d output %v argmax %d, want -Inf and -1", tc, i, v, p.argmax[i])
			}
		}
		grad := tensor.Full(1, out.Shape...)
		dx := p.Backward(grad)
		for i, v := range dx.Data {
			if v != 0 {
				t.Fatalf("%+v: dx[%d] = %v, a window without a winner has no sub-gradient", tc, i, v)
			}
		}
	}
}

// TestMaxPool2x2ScalarMatchesGeneric holds the 2×2 sweep (and, through
// Forward, whichever kernel the platform picks per width) to the generic
// loop on planes with ties, NaN and ±Inf: same outputs, same argmax.
func TestMaxPool2x2ScalarMatchesGeneric(t *testing.T) {
	rng := tensor.NewRNG(16)
	for _, w := range []int{2, 4, 6, 8, 10} {
		for _, h := range []int{2, 4, 6} {
			const planes, batch = 3, 2
			p := NewMaxPool2D(planes, h, w, 2)
			x := rng.Uniform(-1, 1, batch, planes*h*w)
			specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
			for i := range x.Data {
				switch rng.Intn(8) {
				case 0:
					x.Data[i] = specials[rng.Intn(len(specials))]
				case 1:
					x.Data[i] = x.Data[(i+w)%len(x.Data)] // ties across a window
				}
			}
			outLen := p.OutFeatures()
			want := make([]float64, batch*outLen)
			wantAM := make([]int, batch*outLen)
			scalar := make([]float64, outLen)
			scalarAM := make([]int, outLen)
			got := p.Forward(x, true)
			for b := 0; b < batch; b++ {
				src := x.Data[b*planes*h*w : (b+1)*planes*h*w]
				p.poolGeneric(want[b*outLen:(b+1)*outLen], wantAM[b*outLen:(b+1)*outLen], src)
				maxPool2x2(scalar, scalarAM, src, w, planes*h/2, w/2)
				sameBits(t, fmt.Sprintf("w=%d h=%d sweep", w, h), scalar, want[b*outLen:(b+1)*outLen])
				for i, idx := range scalarAM {
					if idx != wantAM[b*outLen+i] {
						t.Fatalf("w=%d h=%d sweep argmax %d: %d, generic %d", w, h, i, idx, wantAM[b*outLen+i])
					}
				}
			}
			sameBits(t, fmt.Sprintf("w=%d h=%d Forward", w, h), got.Data, want)
			for i, idx := range p.argmax {
				if idx != wantAM[i] {
					t.Fatalf("w=%d h=%d Forward argmax %d: %d, generic %d", w, h, i, idx, wantAM[i])
				}
			}
		}
	}
}
