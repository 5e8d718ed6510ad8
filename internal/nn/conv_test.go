package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"fedcross/internal/tensor"
)

// refConv is a float64 convolution built from tensor's lowering, sample
// by sample: Im2ColTo, GoBackend's Gemm and the bias forward; dW += dy·
// colsᵀ, dB += Σ dy and dx = Col2ImTo(Wᵀ·dy) backward. It is the
// reference the gradient checks differentiate and that
// TestConvMatchesFloat64Reference holds the float32 Conv2D to.
type refConv struct {
	g              tensor.ConvGeom
	outC           int
	W, B, dW, dB   *tensor.Tensor
	x              *tensor.Tensor
	cols, y, dcols *tensor.Tensor
}

// newRefConv returns the reference for c's geometry, on copies of c's
// parameters and gradients.
func newRefConv(c *Conv2D) *refConv {
	g := c.Geom
	rows, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	return &refConv{g: g, outC: c.OutC, W: c.W.Clone(), B: c.B.Clone(), dW: c.dW.Clone(), dB: c.dB.Clone(),
		cols: tensor.Zeros(rows, spatial), y: tensor.Zeros(c.OutC, spatial), dcols: tensor.Zeros(rows, spatial)}
}

func (r *refConv) sample(x *tensor.Tensor, b int) *tensor.Tensor {
	n := r.g.InC * r.g.InH * r.g.InW
	return tensor.New(x.Data[b*n:(b+1)*n], r.g.InC, r.g.InH, r.g.InW)
}

func (r *refConv) Forward(x *tensor.Tensor) *tensor.Tensor {
	r.x = x
	rows, spatial := r.cols.Shape[0], r.cols.Shape[1]
	out := tensor.Zeros(x.Shape[0], r.outC*spatial)
	for b := 0; b < x.Shape[0]; b++ {
		tensor.Im2ColTo(r.cols, r.sample(x, b), r.g)
		tensor.GoBackend{}.Gemm(r.y.Data, r.W.Data, r.cols.Data, r.outC, rows, spatial, false, false, false)
		for oc := 0; oc < r.outC; oc++ {
			for j := 0; j < spatial; j++ {
				out.Data[(b*r.outC+oc)*spatial+j] = r.y.Data[oc*spatial+j] + r.B.Data[oc]
			}
		}
	}
	return out
}

func (r *refConv) Backward(grad *tensor.Tensor) *tensor.Tensor {
	rows, spatial := r.cols.Shape[0], r.cols.Shape[1]
	dx := tensor.Zeros(r.x.Shape...)
	for b := 0; b < grad.Shape[0]; b++ {
		dy := grad.Data[b*r.outC*spatial : (b+1)*r.outC*spatial]
		tensor.Im2ColTo(r.cols, r.sample(r.x, b), r.g)
		tensor.GoBackend{}.Gemm(r.dW.Data, dy, r.cols.Data, r.outC, spatial, rows, false, true, true)
		for oc := 0; oc < r.outC; oc++ {
			for _, v := range dy[oc*spatial : (oc+1)*spatial] {
				r.dB.Data[oc] += v
			}
		}
		tensor.GoBackend{}.Gemm(r.dcols.Data, r.W.Data, dy, rows, r.outC, spatial, true, false, false)
		tensor.Col2ImTo(r.sample(dx, b), r.dcols, r.g)
	}
	return dx
}

func (r *refConv) Params() []*tensor.Tensor { return []*tensor.Tensor{r.W, r.B} }
func (r *refConv) Grads() []*tensor.Tensor  { return []*tensor.Tensor{r.dW, r.dB} }

// absOf returns a tensor of the absolute values of t.
func absOf(t *tensor.Tensor) *tensor.Tensor {
	a := t.Clone()
	for i, v := range a.Data {
		a.Data[i] = math.Abs(v)
	}
	return a
}

// gamma is γ(k) = k·u/(1−k·u) for float32's unit roundoff u = 2⁻²⁴: the
// relative bound on a sum of k terms each carrying at most k roundings.
func gamma(k int) float64 {
	const u = 0x1p-24
	return float64(k) * u / (1 - float64(k)*u)
}

// withinBound checks got against the float64 reference want element by
// element: |got − want| ≤ γ(n+2)·abs, where abs is the sum of the
// element's terms' magnitudes and n its float32 chain length (the two
// extra roundings are the operands' conversions to float32). Where the
// reference is NaN or ±Inf, got must be the same: NaN, or the same
// infinity.
func withinBound(t *testing.T, what string, got, want, abs []float64, n int) {
	t.Helper()
	for i, w := range want {
		g := got[i]
		switch {
		case math.IsNaN(w) || math.IsInf(w, 0):
			if !(math.IsNaN(w) && math.IsNaN(g)) && g != w {
				t.Fatalf("%s element %d: %v, reference %v", what, i, g, w)
			}
		case math.IsNaN(g) || math.IsInf(g, 0) || math.Abs(g-w) > gamma(n+2)*abs[i]:
			t.Fatalf("%s element %d: %v, reference %v: error %.3g over the bound %.3g (n = %d)",
				what, i, g, w, math.Abs(g-w), gamma(n+2)*abs[i], n)
		}
	}
}

// plantSpecials puts one NaN, one +Inf, one −Inf and one −0 at random
// elements of data.
func plantSpecials(rng *tensor.RNG, data []float64) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)} {
		data[rng.Intn(len(data))] = v
	}
}

// TestConvMatchesFloat64Reference holds the product Conv2D — float32
// kernels between float64 boundaries — to the float64 reference
// convolution: out, dW, dB and dx each within γ(n+2) of the sum of their
// terms' magnitudes (see withinBound), with n the taps for out, the
// batch's positions for dW and dB (whose float32 sums are added to
// gradients that already hold values, a term of their own), and the
// output channels for each of dx's per-tap terms. It runs over kernel
// shapes, strides, paddings, planes the vector kernels take and planes
// they leave to the twins, channel counts on both sides of the
// eight-channel block, and batches that grow, shrink and grow again
// through the same layer (a stale row of either padded buffer would
// show); every other geometry plants a NaN, ±Inf and −0 in x, W and the
// incoming gradient, and the non-finite results must land where the
// reference's do.
func TestConvMatchesFloat64Reference(t *testing.T) {
	rng := tensor.NewRNG(15)
	check := func(g tensor.ConvGeom, outC int, batches []int, special bool) {
		name := fmt.Sprintf("%+v outC=%d special=%v", g, outC, special)
		c := NewConv2D(g, outC, rng)
		c.B = rng.Uniform(-1, 1, outC)
		if special {
			plantSpecials(rng, c.W.Data)
		}
		taps, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
		for _, batch := range batches {
			what := fmt.Sprintf("%s batch %d", name, batch)
			x := rng.Uniform(-1, 1, batch, c.InFeatures())
			grad := rng.Uniform(-1, 1, batch, c.OutFeatures())
			if special {
				plantSpecials(rng, x.Data)
				plantSpecials(rng, grad.Data)
			}
			c.dW = rng.Uniform(-1, 1, c.dW.Shape...)
			c.dB = rng.Uniform(-1, 1, outC)
			ref, abs := newRefConv(c), newRefConv(c)
			abs.W, abs.B, abs.dW, abs.dB = absOf(c.W), absOf(c.B), absOf(c.dW), absOf(c.dB)

			withinBound(t, what+" out", c.Forward(x).Data, ref.Forward(x).Data, abs.Forward(absOf(x)).Data, taps)
			dx := c.Backward(grad)
			withinBound(t, what+" dx", dx.Data, ref.Backward(grad).Data, abs.Backward(absOf(grad)).Data, outC)
			withinBound(t, what+" dW", c.dW.Data, ref.dW.Data, abs.dW.Data, batch*spatial)
			withinBound(t, what+" dB", c.dB.Data, ref.dB.Data, abs.dB.Data, batch*spatial)
		}
	}

	n := 0
	for _, k := range [][2]int{{1, 1}, {3, 3}, {5, 3}} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				for _, pl := range [][2]int{{4, 4}, {5, 7}, {8, 8}} {
					for _, inC := range []int{1, 3, 8} {
						for _, outC := range []int{1, 8, 12, 16} {
							g := tensor.ConvGeom{InC: inC, InH: pl[0], InW: pl[1], KH: k[0], KW: k[1], Stride: stride, Pad: pad}
							if g.Validate() != nil {
								continue
							}
							// A training-sized batch on a third of the grid;
							// growth, a shorter batch and growth again
							// everywhere.
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
}

// sameBits compares two slices bit for bit, any NaN equal to any NaN.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s element %d: %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
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

// TestConstructorsRefuseUnrunnableSizes: a layer whose sizes it could not
// run must be refused when it is built, by a panic that names it — not on
// the first Forward, inside a kernel (NewConv2D with no output channel
// used to fail there, NewMaxPool2D took empty planes because 0%k is 0,
// and NewGlobalAvgPool took an empty plane, whose average is 0/0).
func TestConstructorsRefuseUnrunnableSizes(t *testing.T) {
	rng := tensor.NewRNG(24)
	g := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	for _, tc := range []struct {
		name, want string
		build      func()
	}{
		{"conv without output channels", "nn: Conv2D: 0 output channels", func() { NewConv2D(g, 0, rng) }},
		{"conv with negative output channels", "nn: Conv2D: -3 output channels", func() { NewConv2D(g, -3, rng) }},
		{"conv with an empty plane", "nn: Conv2D: tensor: conv geometry", func() {
			NewConv2D(tensor.ConvGeom{InC: 2, InH: 0, InW: 4, KH: 1, KW: 1, Stride: 1}, 4, rng)
		}},
		{"pool without channels", "nn: MaxPool2D: 0 channels of 4x4", func() { NewMaxPool2D(0, 4, 4, 2) }},
		{"pool without rows", "nn: MaxPool2D: 2 channels of 0x4", func() { NewMaxPool2D(2, 0, 4, 2) }},
		{"pool without columns", "nn: MaxPool2D: 2 channels of 4x0", func() { NewReLUMaxPool2D(2, 4, 0, 2) }},
		{"pool with negative rows", "nn: MaxPool2D: 2 channels of -2x4", func() { NewMaxPool2D(2, -2, 4, 2) }},
		{"pool kernel that does not divide", "nn: MaxPool2D: kernel 3 must divide 4x4", func() { NewMaxPool2D(2, 4, 4, 3) }},
		{"average pool without channels", "nn: GlobalAvgPool: 0 channels of 4x4", func() { NewGlobalAvgPool(0, 4, 4) }},
		{"average pool without rows", "nn: GlobalAvgPool: 2 channels of 0x4", func() { NewGlobalAvgPool(2, 0, 4) }},
		{"average pool without columns", "nn: GlobalAvgPool: 2 channels of 4x0", func() { NewGlobalAvgPool(2, 4, 0) }},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.HasPrefix(msg, tc.want) {
					t.Errorf("%s: panic %q, want one starting %q", tc.name, msg, tc.want)
				}
			}()
			tc.build()
		}()
	}
	NewConv2D(g, 1, rng) // the smallest runnable sizes are accepted
	NewMaxPool2D(1, 1, 1, 1)
	NewGlobalAvgPool(1, 1, 1)
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

// boundarySpecials are the values the layers' data-movement kernels could
// get wrong: NaNs of two payloads, ±Inf, −0, float64 and float32
// denormals, and magnitudes beyond float32, which narrow to ±Inf.
var boundarySpecials = []float64{
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff4000000000abc),
	math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, 1e-40, 1e39, -1e300,
}

func plantBoundary(rng *tensor.RNG, data []float64) {
	for i := range data {
		if rng.Intn(6) == 0 {
			data[i] = boundarySpecials[rng.Intn(len(boundarySpecials))]
		}
	}
}

// TestConvBoundaryMatchesLoops holds Conv2D's float32 boundary to the Go
// loops it ran before tensor.NarrowPadded and tensor.Unpad took it: the
// padded buffer (interiors narrowed row by row, borders still zero), the
// narrowed output gradient and dx (the padded input gradient's interiors
// copied out row by row), bit for bit, NaN payloads included, over widths
// the assembly takes and ragged ones, padding 0–2, and batches that shrink
// and grow through one layer.
func TestConvBoundaryMatchesLoops(t *testing.T) {
	rng := tensor.NewRNG(29)
	for _, g := range []tensor.ConvGeom{
		{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 8, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 2, InH: 5, InW: 7, KH: 3, KW: 3, Stride: 1, Pad: 2},
		{InC: 2, InH: 6, InW: 8, KH: 1, KW: 1, Stride: 2, Pad: 0},
		{InC: 1, InH: 3, InW: 13, KH: 3, KW: 2, Stride: 1, Pad: 1},
	} {
		c := NewConv2D(g, 8, rng)
		ph, pw := g.InH+2*g.Pad, g.InW+2*g.Pad
		for _, batch := range []int{3, 1, 4} {
			what := fmt.Sprintf("%+v batch %d", g, batch)
			x := rng.Uniform(-2, 2, batch, c.InFeatures())
			plantBoundary(rng, x.Data)
			grad := rng.Uniform(-2, 2, batch, c.OutFeatures())
			plantBoundary(rng, grad.Data)
			c.Forward(x)
			dx := c.Backward(grad)

			padded := make([]float32, batch*c.paddedLen())
			for i := 0; i < batch*g.InC; i++ {
				dst, src := padded[(i*ph+g.Pad)*pw+g.Pad:], x.Data[i*g.InH*g.InW:]
				for y := 0; y < g.InH; y++ {
					for j, v := range src[y*g.InW : (y+1)*g.InW] {
						dst[y*pw+j] = float32(v)
					}
				}
			}
			dy := make([]float32, len(grad.Data))
			for i, v := range grad.Data {
				dy[i] = float32(v)
			}
			wantDx := make([]float64, batch*c.InFeatures())
			for i := 0; i < batch*g.InC; i++ {
				src := c.dpad.Data[(i*ph+g.Pad)*pw+g.Pad:]
				for y := 0; y < g.InH; y++ {
					copy(wantDx[(i*g.InH+y)*g.InW:(i*g.InH+y+1)*g.InW], src[y*pw:y*pw+g.InW])
				}
			}
			for _, buf := range []struct {
				name      string
				got, want []float32
			}{{"padded", c.padded, padded}, {"dy", c.dy, dy}} {
				if len(buf.got) != len(buf.want) {
					t.Fatalf("%s %s: %d elements, want %d", what, buf.name, len(buf.got), len(buf.want))
				}
				for i := range buf.want {
					if math.Float32bits(buf.got[i]) != math.Float32bits(buf.want[i]) {
						t.Fatalf("%s %s element %d: %#x, the loop's %#x", what, buf.name, i, math.Float32bits(buf.got[i]), math.Float32bits(buf.want[i]))
					}
				}
			}
			for i := range wantDx {
				if math.Float64bits(dx.Data[i]) != math.Float64bits(wantDx[i]) {
					t.Fatalf("%s dx element %d: %#x, the loop's %#x", what, i, math.Float64bits(dx.Data[i]), math.Float64bits(wantDx[i]))
				}
			}
		}
	}
}

// TestMaxPoolBackwardMatchesScatter holds MaxPool2D.Backward, which for
// 2×2 pools writes every input cell once through tensor.Unpool2x2, to the
// loop it ran before — dx zeroed, then each winner's gradient added — bit
// for bit, for both start values, on planes the unpool's assembly takes
// (rows of a multiple of four windows, 4-wide planes) and ones it does
// not, with argmax -1 windows and −0, NaN and ±Inf gradients, through
// batches that shrink and grow so a reused dx holds the last call's
// values. A 3×3 pool keeps the zero-and-scatter loop.
func TestMaxPoolBackwardMatchesScatter(t *testing.T) {
	rng := tensor.NewRNG(31)
	for _, kind := range poolKinds {
		for _, tc := range []struct{ c, h, w, k int }{
			{8, 8, 8, 2}, {16, 4, 4, 2}, {1, 2, 4, 2}, {3, 4, 16, 2}, {2, 6, 6, 2}, {2, 2, 2, 2}, {2, 6, 9, 3},
		} {
			p := kind.new(tc.c, tc.h, tc.w, tc.k)
			inLen, outLen := p.InFeatures(), p.OutFeatures()
			for _, batch := range []int{4, 1, 5} {
				what := fmt.Sprintf("%s %+v batch %d", kind.name, tc, batch)
				p.Forward(poolInput(rng, batch, inLen, tc.w))
				grad := rng.Uniform(-1, 1, batch, outLen)
				sprinkle(rng, grad.Data)
				want := make([]float64, batch*inLen)
				for b := 0; b < batch; b++ {
					for o, idx := range p.argmax[b*outLen : (b+1)*outLen] {
						if idx >= 0 {
							want[b*inLen+idx] += grad.Data[b*outLen+o]
						}
					}
				}
				got := p.Backward(grad).Data
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s dx element %d: %v (%#x), the scatter's %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}
