package nn

import (
	"fmt"
	"math"
	"strings"
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
// both sides of the eight-lane block, batches that grow, shrink and grow
// again through the same layer (a stale row of either padded buffer
// would show), gradients accumulating onto non-zero values, and inputs
// carrying signed zeros, denormals, infinities and NaN.
func TestConvDirectMatchesLowered(t *testing.T) {
	rng := tensor.NewRNG(15)
	kernels := []struct {
		name string
		fwd  convForwardFunc
		grad convGradFunc
		in   convGradInputFunc
	}{
		{"dispatched", tensor.ConvForward, tensor.ConvGradParams, tensor.ConvGradInput},
		{"scalar", tensor.ConvForwardGo, tensor.ConvGradParamsGo, tensor.ConvGradInputGo},
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
				sameBits(t, what+" dx", c.backwardInput(grad, k.in).Data, wantDx.Data)
			}
			// The public pair on the dispatched layer: Backward adds the
			// same parameter gradients and returns the lowering's dx.
			c := layers[0]
			copy(c.dW.Data, dW0.Data)
			copy(c.dB.Data, dB0.Data)
			sameBits(t, name+" Forward", c.Forward(x).Data, wantOut.Data)
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
							// grid; growth, a shorter batch and growth
							// again everywhere.
							batches := []int{1, 3, 2, 4}
							if n%3 == 0 {
								batches = []int{1, 3, 50, 7, 9}
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
	// Planes whose positions are whole vectors but not whole blocks of
	// sixteen (20, 24, 40 and 96 of them), which the input-gradient kernel
	// finishes four at a time: an even tap count (taps in pairs) and an
	// odd one (taps singly) each.
	for _, pl := range [][2]int{{5, 4}, {6, 4}, {5, 8}, {12, 8}} {
		for _, inC := range []int{2, 3} {
			g := tensor.ConvGeom{InC: inC, InH: pl[0], InW: pl[1], KH: 3, KW: 3, Stride: 1, Pad: 1}
			check(g, 5, []int{2, 1, 3}, inC == 3)
		}
	}
	// An even tap count that does not split into two halves of input
	// channels — a 2×2 kernel over one or three — must not be paired: the
	// halves share cells, and pairing would reorder their adds.
	for _, inC := range []int{1, 2, 3} {
		g := tensor.ConvGeom{InC: inC, InH: 5, InW: 5, KH: 2, KW: 2, Stride: 1}
		check(g, 6, []int{3, 1}, inC == 2)
	}
}

// poolKinds are MaxPool2D's two constructors with the start value each
// gives the running maximum.
var poolKinds = []struct {
	name  string
	new   func(c, h, w, k int) *MaxPool2D
	start float64
}{
	{"MaxPool2D", NewMaxPool2D, math.Inf(-1)},
	{"ReLUMaxPool2D", NewReLUMaxPool2D, 0},
}

// TestMaxPoolNoWinnerBackward: a window that is all NaN records argmax -1
// and must route no gradient — it used to index dst[-1] — and outputs the
// start value, -Inf or the folded ReLU's +0. Width 2 takes the scalar
// 2×2 path, 4×4 and width 8 the vector kernel where there is one, and
// kernel 3 the generic loop.
func TestMaxPoolNoWinnerBackward(t *testing.T) {
	for _, kind := range poolKinds {
		for _, tc := range []struct{ h, w, k int }{{2, 2, 2}, {4, 4, 2}, {2, 8, 2}, {3, 3, 3}} {
			p := kind.new(1, tc.h, tc.w, tc.k)
			x := tensor.Zeros(1, tc.h*tc.w)
			for i := range x.Data {
				x.Data[i] = math.NaN()
			}
			out := p.Forward(x)
			for i, v := range out.Data {
				if math.Float64bits(v) != math.Float64bits(kind.start) || p.argmax[i] != -1 {
					t.Fatalf("%s %+v: window %d output %v argmax %d, want %v and -1", kind.name, tc, i, v, p.argmax[i], kind.start)
				}
			}
			grad := tensor.Full(1, out.Shape...)
			dx := p.Backward(grad)
			for i, v := range dx.Data {
				if v != 0 {
					t.Fatalf("%s %+v: dx[%d] = %v, a window without a winner has no sub-gradient", kind.name, tc, i, v)
				}
			}
		}
	}
}

// poolSpecials are the values a pooling shortcut would get wrong.
var poolSpecials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324, -2.5e-310}

// poolInput fills a batch of planes with values in (-1, 1), about a
// quarter of them special values or exact ties across a window, and turns
// every eleventh row pair non-positive so whole windows have nothing for
// a ReLU to pass.
func poolInput(rng *tensor.RNG, batch, features, w int) *tensor.Tensor {
	x := rng.Uniform(-1, 1, batch, features)
	for i := range x.Data {
		switch rng.Intn(8) {
		case 0:
			x.Data[i] = poolSpecials[rng.Intn(len(poolSpecials))]
		case 1:
			x.Data[i] = x.Data[(i+w)%len(x.Data)]
		}
	}
	for r := 0; (r+2)*w <= len(x.Data); r += 22 {
		for i := r * w; i < (r+2)*w; i++ {
			x.Data[i] = -math.Abs(x.Data[i])
		}
	}
	return x
}

// TestMaxPool2x2ScalarMatchesGeneric holds the 2×2 sweep (and, through
// Forward, whichever kernel the platform picks per width) to the generic
// loop on planes with ties, NaN, ±Inf, signed zeros and denormals, for
// both start values: same outputs, same argmax.
func TestMaxPool2x2ScalarMatchesGeneric(t *testing.T) {
	rng := tensor.NewRNG(16)
	for _, kind := range poolKinds {
		for _, w := range []int{2, 4, 6, 8, 10} {
			for _, h := range []int{2, 4, 6} {
				const planes, batch = 3, 2
				p := kind.new(planes, h, w, 2)
				x := poolInput(rng, batch, planes*h*w, w)
				outLen := p.OutFeatures()
				want := make([]float64, batch*outLen)
				wantAM := make([]int, batch*outLen)
				scalar := make([]float64, outLen)
				scalarAM := make([]int, outLen)
				got := p.Forward(x)
				what := fmt.Sprintf("%s w=%d h=%d", kind.name, w, h)
				for b := 0; b < batch; b++ {
					src := x.Data[b*planes*h*w : (b+1)*planes*h*w]
					p.poolGeneric(want[b*outLen:(b+1)*outLen], wantAM[b*outLen:(b+1)*outLen], src)
					maxPool2x2(scalar, scalarAM, src, w, planes*h/2, w/2, kind.start)
					sameBits(t, what+" sweep", scalar, want[b*outLen:(b+1)*outLen])
					for i, idx := range scalarAM {
						if idx != wantAM[b*outLen+i] {
							t.Fatalf("%s sweep argmax %d: %d, generic %d", what, i, idx, wantAM[b*outLen+i])
						}
					}
				}
				sameBits(t, what+" Forward", got.Data, want)
				for i, idx := range p.argmax {
					if idx != wantAM[i] {
						t.Fatalf("%s Forward argmax %d: %d, generic %d", what, i, idx, wantAM[i])
					}
				}
			}
		}
	}
}

// TestReLUMaxPoolMatchesLayers pins the folded layer to the two it
// replaces: NewReLUMaxPool2D against NewReLU followed by NewMaxPool2D —
// outputs and input gradients Float64bits-equal, on a first batch and on
// a second of another size through the same layers — over 2×2 pools on
// 4-wide planes (the vector kernel's stacked-row-pair path, and with one
// channel of two rows its decline), 8- and 12-wide ones, a 2-wide plane
// (scalar) and a 3×3 pool (generic), with NaN, ±Inf, signed zeros,
// denormals, exact ties and windows nothing positive enters.
func TestReLUMaxPoolMatchesLayers(t *testing.T) {
	rng := tensor.NewRNG(20)
	for _, tc := range []struct{ c, h, w, k int }{
		{1, 4, 4, 2}, {8, 4, 4, 2}, {16, 4, 4, 2}, {1, 2, 4, 2},
		{8, 8, 8, 2}, {16, 8, 8, 2}, {1, 12, 8, 2}, {8, 8, 12, 2},
		{8, 6, 2, 2}, {1, 6, 9, 3}, {8, 6, 9, 3},
	} {
		folded := NewReLUMaxPool2D(tc.c, tc.h, tc.w, tc.k)
		relu, pool := NewReLU(), NewMaxPool2D(tc.c, tc.h, tc.w, tc.k)
		for _, batch := range []int{5, 2, 7} {
			what := fmt.Sprintf("%+v batch %d", tc, batch)
			x := poolInput(rng, batch, folded.InFeatures(), tc.w)
			sameBits(t, what+" out", folded.Forward(x).Data, pool.Forward(relu.Forward(x)).Data)
			grad := rng.Uniform(-1, 1, batch, folded.OutFeatures())
			sprinkle(rng, grad.Data)
			sameBits(t, what+" dx", folded.Backward(grad).Data, relu.Backward(pool.Backward(grad)).Data)
		}
	}
}

// TestBackwardRejectsForeignBatch: every layer's Backward pairs the
// gradient row by row with what its Forward cached, so a gradient of any
// other batch — one row longer, one row shorter, or before the first
// Forward — must be refused by name before a kernel sees it. (Conv2D and
// MaxPool2D used to drop rows, slice out of range, pair the wrong
// activations or dereference nil; LSTM copied a short gradient into dh
// over the previous call's last row; GlobalAvgPool and Embedding ignored
// extra rows; Tanh and Sigmoid indexed past their output or returned a
// short dx; Linear dereferenced nil before a Forward.) A gradient of the
// cached batch but the wrong width is refused by name too. Residual and
// Sequential hand the gradient to the layers they hold.
func TestBackwardRejectsForeignBatch(t *testing.T) {
	rng := tensor.NewRNG(21)
	const in = 2 * 4 * 4
	dense := func(rows int) *tensor.Tensor { return rng.Uniform(-1, 1, rows, in) }
	const vocab, steps, dim, hidden = 5, 4, 3, 6
	tokens := func(rows int) *tensor.Tensor {
		x := tensor.Zeros(rows, steps)
		for i := range x.Data {
			x.Data[i] = float64(rng.Intn(vocab))
		}
		return x
	}
	// backward wraps a layer's Backward, which every case but
	// BackwardParams runs.
	backward := func(l Layer) func(*tensor.Tensor) { return func(g *tensor.Tensor) { l.Backward(g) } }
	conv := func() *Conv2D {
		return NewConv2D(tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, 3, rng)
	}
	for _, tc := range []struct {
		name  string
		input func(rows int) *tensor.Tensor
		out   int
		new   func() (l Layer, backward func(*tensor.Tensor))
	}{
		{"Linear", dense, 3, func() (Layer, func(*tensor.Tensor)) {
			l := NewLinear(in, 3, rng)
			return l, backward(l)
		}},
		{"Linear", dense, 3, func() (Layer, func(*tensor.Tensor)) {
			l := NewLinear(in, 3, rng)
			return l, l.BackwardParams
		}},
		{"ReLU", dense, in, func() (Layer, func(*tensor.Tensor)) { l := NewReLU(); return l, backward(l) }},
		{"Tanh", dense, in, func() (Layer, func(*tensor.Tensor)) { l := NewTanh(); return l, backward(l) }},
		{"Sigmoid", dense, in, func() (Layer, func(*tensor.Tensor)) { l := NewSigmoid(); return l, backward(l) }},
		{"MaxPool2D", dense, 8, func() (Layer, func(*tensor.Tensor)) { l := NewMaxPool2D(2, 4, 4, 2); return l, backward(l) }},
		{"MaxPool2D", dense, 8, func() (Layer, func(*tensor.Tensor)) { l := NewReLUMaxPool2D(2, 4, 4, 2); return l, backward(l) }},
		{"GlobalAvgPool", dense, 2, func() (Layer, func(*tensor.Tensor)) { l := NewGlobalAvgPool(2, 4, 4); return l, backward(l) }},
		{"Conv2D", dense, 48, func() (Layer, func(*tensor.Tensor)) { c := conv(); return c, backward(c) }},
		{"Conv2D", dense, 48, func() (Layer, func(*tensor.Tensor)) { c := conv(); return c, c.BackwardParams }},
		{"Embedding", tokens, steps * dim, func() (Layer, func(*tensor.Tensor)) {
			l := NewEmbedding(vocab, dim, rng)
			return l, backward(l)
		}},
		{"LSTM", func(rows int) *tensor.Tensor { return rng.Uniform(-1, 1, rows, steps*dim) }, hidden, func() (Layer, func(*tensor.Tensor)) {
			l := NewLSTM(steps, dim, hidden, rng)
			return l, backward(l)
		}},
	} {
		l, backward := tc.new()
		refused := func(when string, rows, forward int) {
			t.Helper()
			want := fmt.Sprintf("nn: %s.Backward: gradient batch %d, forward batch %d", tc.name, rows, forward)
			defer func() {
				if msg := fmt.Sprint(recover()); msg != want {
					t.Errorf("%s, %s: panic %q, want %q", tc.name, when, msg, want)
				}
			}()
			backward(rng.Uniform(-1, 1, rows, tc.out))
		}
		refused("before any Forward", 3, 0)
		l.Forward(tc.input(5))
		refused("longer gradient", 6, 5)
		refused("shorter gradient", 4, 5)
		func() {
			prefix := "nn: " + tc.name + ".Backward"
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.HasPrefix(msg, prefix) {
					t.Errorf("%s, wider gradient: panic %q, want one starting %q", tc.name, msg, prefix)
				}
			}()
			backward(rng.Uniform(-1, 1, 5, tc.out+1))
		}()
		backward(rng.Uniform(-1, 1, 5, tc.out)) // the cached batch is accepted
	}
}
