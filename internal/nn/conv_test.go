package nn

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"fedcross/internal/tensor"
	"fedcross/internal/tensor/lowering"
)

// refConv is a float64 convolution built from internal/tensor/lowering,
// sample by sample: Im2ColTo, GoBackend's Gemm and the bias forward; dW += dy·
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

// newRefConv returns a reference convolution of any geometry g with outC
// output channels, its filters drawn from rng as NewConv2D draws them.
func newRefConv(g tensor.ConvGeom, outC int, rng *tensor.RNG) *refConv {
	rows, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	bound := math.Sqrt(6.0 / float64(rows))
	return &refConv{g: g, outC: outC, W: rng.Uniform(-bound, bound, outC, rows), B: tensor.Zeros(outC),
		dW: tensor.Zeros(outC, rows), dB: tensor.Zeros(outC),
		cols: tensor.Zeros(rows, spatial), y: tensor.Zeros(outC, spatial), dcols: tensor.Zeros(rows, spatial)}
}

// OutFeatures returns the flattened output width.
func (r *refConv) OutFeatures() int { return r.outC * r.g.OutH() * r.g.OutW() }

func (r *refConv) sample(x *tensor.Tensor, b int) *tensor.Tensor {
	n := r.g.InC * r.g.InH * r.g.InW
	return tensor.New(x.Data[b*n:(b+1)*n], r.g.InC, r.g.InH, r.g.InW)
}

func (r *refConv) Forward(x *tensor.Tensor) *tensor.Tensor {
	r.x = x
	rows, spatial := r.cols.Shape[0], r.cols.Shape[1]
	out := tensor.Zeros(x.Shape[0], r.outC*spatial)
	for b := 0; b < x.Shape[0]; b++ {
		lowering.Im2ColTo(r.cols, r.sample(x, b), r.g)
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
		lowering.Im2ColTo(r.cols, r.sample(r.x, b), r.g)
		tensor.GoBackend{}.Gemm(r.dW.Data, dy, r.cols.Data, r.outC, spatial, rows, false, true, true)
		for oc := 0; oc < r.outC; oc++ {
			for _, v := range dy[oc*spatial : (oc+1)*spatial] {
				r.dB.Data[oc] += v
			}
		}
		tensor.GoBackend{}.Gemm(r.dcols.Data, r.W.Data, dy, rows, r.outC, spatial, true, false, false)
		lowering.Col2ImTo(r.sample(dx, b), r.dcols, r.g)
	}
	return dx
}

func (r *refConv) Params() []*tensor.Tensor { return []*tensor.Tensor{r.W, r.B} }
func (r *refConv) Grads() []*tensor.Tensor  { return []*tensor.Tensor{r.dW, r.dB} }

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
// reference is NaN or ±Inf, got must be non-finite too: NaN, or the same
// infinity, unless poisonable. A poisonable result may also be
// non-finite where the reference is finite: the Winograd transforms
// spread a non-finite operand over its whole tile (tensor.Winograd).
func withinBound(t *testing.T, what string, got, want, abs []float64, n int, poisonable bool) {
	t.Helper()
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for i, w := range want {
		g := got[i]
		switch {
		case !finite(w):
			if finite(g) || !poisonable && !(math.IsNaN(w) && math.IsNaN(g)) && g != w {
				t.Fatalf("%s element %d: %v, reference %v", what, i, g, w)
			}
		case !finite(g):
			if !poisonable {
				t.Fatalf("%s element %d: %v, reference %v", what, i, g, w)
			}
		case math.Abs(g-w) > gamma(n+2)*abs[i]:
			t.Fatalf("%s element %d: %v, reference %v: error %.3g over the bound %.3g (n = %d)",
				what, i, g, w, math.Abs(g-w), gamma(n+2)*abs[i], n)
		}
	}
}

// The Winograd transforms with every entry replaced by its magnitude:
// |Bᵀ|, |G| (which is also |G̃|), |Aᵀ| and |Ã|. A result the Winograd
// kernels compute is Σ coefficient·operand·operand over the expansion of
// its transforms, every term through the same chain of roundings, so the
// sum of its terms' magnitudes is the same transforms evaluated with
// these entries on the operands' magnitudes — in float64, exact enough
// for a float32 bound.
var (
	absBT = [4][4]float64{{1, 0, 1, 0}, {0, 1, 1, 0}, {0, 1, 1, 0}, {0, 1, 0, 1}}
	absG  = [4][3]float64{{1, 0, 0}, {.5, .5, .5}, {.5, .5, .5}, {0, 0, 1}}
	absAT = [2][4]float64{{1, 1, 1, 0}, {0, 1, 1, 1}}
	absAt = [4][2]float64{{1, 0}, {1, 1}, {1, 1}, {0, 1}}
)

// absWindow returns |Bᵀ| |d| |B| for the 4×4 window of an h×w plane,
// zero-padded by one, whose top-left padded cell is (y0, x0).
func absWindow(plane []float64, h, w, y0, x0 int) (v [4][4]float64) {
	var d [4][4]float64
	for r := range d {
		for c := range d[r] {
			if y, x := y0+r-1, x0+c-1; y >= 0 && y < h && x >= 0 && x < w {
				d[r][c] = math.Abs(plane[y*w+x])
			}
		}
	}
	for i := range v {
		for j := range v[i] {
			for r := range d {
				for c := range d[r] {
					v[i][j] += absBT[i][r] * d[r][c] * absBT[j][c]
				}
			}
		}
	}
	return v
}

// absFilter returns |G| |g| |Gᵀ| for a 3×3 filter, turned half way round
// when flip is set.
func absFilter(g []float64, flip bool) (u [4][4]float64) {
	for i := range u {
		for j := range u[i] {
			for k := 0; k < 9; k++ {
				v := g[k]
				if flip {
					v = g[8-k]
				}
				u[i][j] += absG[i][k/3] * math.Abs(v) * absG[j][k%3]
			}
		}
	}
	return u
}

// absConv returns |Aᵀ| [Σ_c |U[o][c]| ⊙ |Bᵀ d B|] |A| + |bias[o]| for
// every output of inC → outC channels over h×w planes: the forward pass,
// or with flipped, transposed filters over the output gradient and no
// bias, the input gradient.
func absConv(planes []float64, inC, outC, h, w int, filter func(o, c int) [4][4]float64, bias []float64) []float64 {
	batch := len(planes) / (inC * h * w)
	out := make([]float64, batch*outC*h*w)
	v := make([][4][4]float64, inC)
	for b := 0; b < batch; b++ {
		for y0 := 0; y0 < h; y0 += 2 {
			for x0 := 0; x0 < w; x0 += 2 {
				for c := range v {
					v[c] = absWindow(planes[(b*inC+c)*h*w:], h, w, y0, x0)
				}
				for o := 0; o < outC; o++ {
					var m [4][4]float64
					for c := range v {
						u := filter(o, c)
						for i := range m {
							for j := range m[i] {
								m[i][j] += u[i][j] * v[c][i][j]
							}
						}
					}
					for y := 0; y < 2; y++ {
						for x := 0; x < 2; x++ {
							var s float64
							for i := range m {
								for j := range m[i] {
									s += absAT[y][i] * m[i][j] * absAT[x][j]
								}
							}
							if bias != nil {
								s += math.Abs(bias[o])
							}
							out[((b*outC+o)*h+y0+y)*w+x0+x] = s
						}
					}
				}
			}
		}
	}
	return out
}

// absGrads returns |G̃ᵀ| [Σ_tiles |Ã dy Ãᵀ| ⊙ |Bᵀ d B|] |G̃| + |dW| per
// channel pair and tap, and Σ|dy| + |dB| per output channel.
func absGrads(c *Conv2D, x, grad, dW, dB []float64) (aw, ab []float64) {
	g, outC := c.Geom, c.OutC
	h, w := g.InH, g.InW
	batch := len(x) / c.InFeatures()
	m := make([][4][4]float64, outC*g.InC)
	ab = make([]float64, outC)
	for b := 0; b < batch; b++ {
		for y0 := 0; y0 < h; y0 += 2 {
			for x0 := 0; x0 < w; x0 += 2 {
				for o := 0; o < outC; o++ {
					dy := grad[(b*outC+o)*h*w:]
					var t [4][4]float64
					for i := range t {
						for j := range t[i] {
							for y := 0; y < 2; y++ {
								for xx := 0; xx < 2; xx++ {
									t[i][j] += absAt[i][y] * math.Abs(dy[(y0+y)*w+x0+xx]) * absAt[j][xx]
								}
							}
						}
					}
					ab[o] += t[1][1]
					for ic := 0; ic < g.InC; ic++ {
						v := absWindow(x[(b*g.InC+ic)*h*w:], h, w, y0, x0)
						for i := range t {
							for j := range t[i] {
								m[o*g.InC+ic][i][j] += t[i][j] * v[i][j]
							}
						}
					}
				}
			}
		}
	}
	aw = make([]float64, len(dW))
	for cell, mm := range m {
		for k := 0; k < 9; k++ {
			s := math.Abs(dW[cell*9+k])
			for i := range mm {
				for j := range mm[i] {
					s += absG[i][k/3] * mm[i][j] * absG[j][k%3]
				}
			}
			aw[cell*9+k] = s
		}
	}
	for o := range ab {
		ab[o] += math.Abs(dB[o])
	}
	return aw, ab
}

// plantSpecials puts one NaN, one +Inf, one −Inf and one −0 at random
// elements of data.
func plantSpecials(rng *tensor.RNG, data []float64) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)} {
		data[rng.Intn(len(data))] = v
	}
}

// TestConvMatchesFloat64Reference holds the product Conv2D — float32
// Winograd kernels between float64 boundaries — to the float64 reference
// convolution: out, dW, dB and dx each within γ(n+2) of the sum of their
// terms' magnitudes (see withinBound). The terms are those of the
// transforms' expansion (absConv, absGrads) and n + 2 counts every
// rounding a term passes: for out the input's conversion and 2 in
// Bᵀ d B, the filter's conversion and 6 in G g Gᵀ (counting each ½ as one,
// for subnormals), the product, InC in the channel sum, 4 in Aᵀ M A and
// the bias add (InC + 16; dx the same over OutC, without the bias); for
// dW 3 in V, 3 in Ã dy Ãᵀ, the product, one per group of eight tiles, 3 in
// the lane collapse, 6 in G̃ᵀ M G̃ and the add to the gradient (groups +
// 17); for dB 3 in the tile sum, the groups, the collapse and the add
// (groups + 7). It runs over planes whose tile pairs sit side by side
// (rows a multiple of eight wide) and stacked (a multiple of four high),
// one quad a sample and several, channel counts on both sides of the
// eight-channel block, and batches that grow, shrink and grow again
// through the same layer (a stale row of any buffer would show); half
// the geometries plant a NaN, ±Inf and −0 in x, W and the incoming
// gradient. Where the reference is non-finite the layer must be too (the
// NaN contract), and a planted value may poison more cells than the
// reference's.
func TestConvMatchesFloat64Reference(t *testing.T) {
	rng := tensor.NewRNG(15)
	checked := 0 // batches
	check := func(g tensor.ConvGeom, outC int, batches []int, special bool) {
		name := fmt.Sprintf("%+v outC=%d special=%v", g, outC, special)
		c := NewConv2D(g.InC, g.InH, g.InW, outC, rng)
		c.B = rng.Uniform(-1, 1, outC)
		if special {
			plantSpecials(rng, c.W.Data)
		}
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
			ref := newRefConv(g, outC, rng)
			for _, p := range [][2]*tensor.Tensor{{ref.W, c.W}, {ref.B, c.B}, {ref.dW, c.dW}, {ref.dB, c.dB}} {
				copy(p[0].Data, p[1].Data)
			}

			h, w := g.InH, g.InW
			groups := (batch*h*w/16 + 1) / 2
			absOut := absConv(x.Data, g.InC, outC, h, w, func(o, ic int) [4][4]float64 {
				return absFilter(c.W.Data[(o*g.InC+ic)*9:], false)
			}, c.B.Data)
			absDx := absConv(grad.Data, outC, g.InC, h, w, func(ic, o int) [4][4]float64 {
				return absFilter(c.W.Data[(o*g.InC+ic)*9:], true)
			}, nil)
			absDW, absDB := absGrads(c, x.Data, grad.Data, c.dW.Data, c.dB.Data)
			withinBound(t, what+" out", c.Forward(x).Data, ref.Forward(x).Data, absOut, g.InC+14, special)
			dx := c.Backward(grad)
			withinBound(t, what+" dx", dx.Data, ref.Backward(grad).Data, absDx, outC+13, special)
			withinBound(t, what+" dW", c.dW.Data, ref.dW.Data, absDW, groups+15, special)
			withinBound(t, what+" dB", c.dB.Data, ref.dB.Data, absDB, groups+5, special)
			checked++
		}
	}

	n := 0
	for _, pl := range [][2]int{{4, 4}, {8, 8}, {4, 12}, {6, 16}} {
		for _, inC := range []int{1, 3, 8} {
			for _, outC := range []int{1, 8, 12, 16} {
				g := tensor.ConvGeom{InC: inC, InH: pl[0], InW: pl[1], KH: 3, KW: 3, Stride: 1, Pad: 1}
				// A training-sized batch on a third of the grid; growth, a
				// shorter batch and growth again everywhere. Specials on
				// half, each channel count with and without them.
				batches := []int{1, 3, 2, 4}
				if n%3 == 0 {
					batches = []int{1, 3, 50, 7, 9}
				}
				check(g, outC, batches, (n+n/4)%2 == 1)
				n++
			}
		}
	}
	if checked < 200 {
		t.Fatalf("only %d batches checked", checked)
	}
}

// sameBits compares two slices bit for bit, NaN payloads included.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
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
// used to fail there, the pool took empty planes because 0%k is 0,
// and NewGlobalAvgPool took an empty plane, whose average is 0/0).
// NewConv2D refuses the planes tensor.NewWinograd does not take.
func TestConstructorsRefuseUnrunnableSizes(t *testing.T) {
	rng := tensor.NewRNG(24)
	for _, tc := range []struct {
		name, want string
		build      func()
	}{
		{"conv without output channels", "nn: Conv2D: 0 output channels", func() { NewConv2D(2, 4, 4, 0, rng) }},
		{"conv with negative output channels", "nn: Conv2D: -3 output channels", func() { NewConv2D(2, 4, 4, -3, rng) }},
		{"conv with an empty plane", "nn: Conv2D: tensor: conv geometry", func() { NewConv2D(2, 0, 4, 4, rng) }},
		{"conv over a 5x5 plane", "nn: Conv2D: geometry {InC:2 InH:5 InW:5 ", func() { NewConv2D(2, 5, 5, 4, rng) }},
		{"conv over a 4x6 plane", "nn: Conv2D: geometry {InC:2 InH:4 InW:6 ", func() { NewConv2D(2, 4, 6, 4, rng) }},
		{"pool without channels", "nn: MaxPool2D: 0 channels of 4x4", func() { NewReLUMaxPool2D(0, 4, 4) }},
		{"pool without rows", "nn: MaxPool2D: 2 channels of 0x4", func() { NewReLUMaxPool2D(2, 0, 4) }},
		{"pool without columns", "nn: MaxPool2D: 2 channels of 4x0", func() { NewReLUMaxPool2D(2, 4, 0) }},
		{"pool with negative rows", "nn: MaxPool2D: 2 channels of -2x4", func() { NewReLUMaxPool2D(2, -2, 4) }},
		{"pool over odd rows", "nn: MaxPool2D: 3x4 planes", func() { NewReLUMaxPool2D(2, 3, 4) }},
		{"pool over odd columns", "nn: MaxPool2D: 4x5 planes", func() { NewReLUMaxPool2D(2, 4, 5) }},
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
	NewConv2D(2, 4, 4, 1, rng) // the smallest runnable sizes are accepted
	NewReLUMaxPool2D(1, 2, 2)
	NewGlobalAvgPool(1, 1, 1)
}

// TestMaxPoolNoWinnerBackward: a window that is all NaN records argmax -1
// and must route no gradient — it used to index dst[-1] — and outputs the
// folded ReLU's +0. Widths 2 and 4 take the scalar twin, width 8 the
// vector kernel where there is one.
func TestMaxPoolNoWinnerBackward(t *testing.T) {
	for _, tc := range []struct{ h, w int }{{2, 2}, {4, 4}, {2, 8}} {
		p := NewReLUMaxPool2D(1, tc.h, tc.w)
		x := tensor.Zeros(1, tc.h*tc.w)
		for i := range x.Data {
			x.Data[i] = math.NaN()
		}
		out := p.Forward(x)
		for i, v := range out.Data {
			if math.Float64bits(v) != 0 || p.argmax[i] != -1 {
				t.Fatalf("%+v: window %d output %v argmax %d, want +0 and -1", tc, i, v, p.argmax[i])
			}
		}
		grad := tensor.New(slices.Repeat([]float64{1}, out.Len()), out.Shape...)
		dx := p.Backward(grad)
		for i, v := range dx.Data {
			if v != 0 {
				t.Fatalf("%+v: dx[%d] = %v, a window without a winner has no sub-gradient", tc, i, v)
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

// TestMaxPoolForwardMatchesTwin holds MaxPool2D.Forward, one
// tensor.MaxPool2x2 call a sample, to tensor.MaxPool2x2Go over the same
// sample (the twin table holds that to a window loop): same outputs, same
// argmax, on planes with ties, NaN, ±Inf, signed zeros and denormals.
func TestMaxPoolForwardMatchesTwin(t *testing.T) {
	rng := tensor.NewRNG(16)
	for _, w := range []int{2, 4, 6, 8, 10} {
		for _, h := range []int{2, 4, 6} {
			const planes, batch = 3, 2
			p := NewReLUMaxPool2D(planes, h, w)
			x := poolInput(rng, batch, planes*h*w, w)
			outLen := p.OutFeatures()
			want, wantAM := make([]float64, batch*outLen), make([]int, batch*outLen)
			for b := 0; b < batch; b++ {
				tensor.MaxPool2x2Go(want[b*outLen:], wantAM[b*outLen:], x.Data[b*planes*h*w:], h/2, w/2, planes)
			}
			what := fmt.Sprintf("w=%d h=%d", w, h)
			sameBits(t, what, p.Forward(x).Data, want)
			for i, idx := range p.argmax {
				if idx != wantAM[i] {
					t.Fatalf("%s argmax %d: %d, twin %d", what, i, idx, wantAM[i])
				}
			}
		}
	}
}

// windowPool is a plain 2×2 stride-2 max pool written out window by
// window: each window's first tap, in (dy, dx) order, strictly greater
// than a maximum that begins at −Inf, and its gradient routed back to
// that tap.
type windowPool struct {
	c, h, w int
	argmax  []int
}

func (p *windowPool) forward(x *tensor.Tensor) *tensor.Tensor {
	batch, oh, ow := x.Shape[0], p.h/2, p.w/2
	out := tensor.Zeros(batch, p.c*oh*ow)
	p.argmax = make([]int, len(out.Data))
	for o := range out.Data {
		best, win := math.Inf(-1), -1
		top := o/ow*2*p.w + o%ow*2 // planes and samples stack their row pairs
		for _, idx := range []int{top, top + 1, top + p.w, top + p.w + 1} {
			if x.Data[idx] > best {
				best, win = x.Data[idx], idx
			}
		}
		out.Data[o], p.argmax[o] = best, win
	}
	return out
}

func (p *windowPool) backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.Zeros(grad.Shape[0], p.c*p.h*p.w)
	for o, idx := range p.argmax {
		if idx >= 0 {
			dx.Data[idx] += grad.Data[o]
		}
	}
	return dx
}

// TestReLUMaxPoolMatchesLayers pins the folded layer to what it replaces:
// NewReLUMaxPool2D against NewReLU followed by a plain max pool from −Inf
// (windowPool) — outputs and input gradients Float64bits-equal, on a
// first batch and on a second of another size through the same layers —
// over 8-wide planes (the vector kernel's rows) and 2-, 4- and 12-wide
// ones (the scalar twin), with NaN, ±Inf, signed zeros, denormals, exact
// ties and windows nothing positive enters.
func TestReLUMaxPoolMatchesLayers(t *testing.T) {
	rng := tensor.NewRNG(20)
	for _, tc := range []struct{ c, h, w int }{
		{1, 4, 4}, {8, 4, 4}, {16, 4, 4}, {1, 2, 4},
		{8, 8, 8}, {16, 8, 8}, {1, 12, 8}, {8, 8, 12}, {8, 6, 2},
	} {
		folded := NewReLUMaxPool2D(tc.c, tc.h, tc.w)
		relu, pool := NewReLU(), &windowPool{c: tc.c, h: tc.h, w: tc.w}
		for _, batch := range []int{5, 2, 7} {
			what := fmt.Sprintf("%+v batch %d", tc, batch)
			x := poolInput(rng, batch, folded.InFeatures(), tc.w)
			sameBits(t, what+" out", folded.Forward(x).Data, pool.forward(relu.Forward(x)).Data)
			grad := rng.Uniform(-1, 1, batch, folded.OutFeatures())
			sprinkle(rng, grad.Data)
			sameBits(t, what+" dx", folded.Backward(grad).Data, relu.Backward(pool.backward(grad)).Data)
		}
	}
}

// TestConvReLUPoolMatchesLayers pins the fused layer to the two it
// replaces: NewConv2DReLUPool against NewConv2D followed by
// NewReLUMaxPool2D, built from the same draws — outputs, input gradients
// and parameter gradients Float64bits-equal, through Backward and through
// BackwardParams, on a first batch and on others of other sizes through
// the same layers (odd batches repeat a 4×4 plane's one quad a sample in
// a group's high half). The planes are the CNN's and VGGMini's pooled
// convolutions and three other layouts; under eight output channels the
// Winograd kernels run their Go twins, from eight on the AVX2 assembly
// where the build has it. Inputs and gradients carry NaN, ±Inf, signed
// zeros and denormals, and every third output channel's filters are
// zero, so its four taps tie at its bias.
func TestConvReLUPoolMatchesLayers(t *testing.T) {
	for i, tc := range []struct{ inC, h, w, outC int }{
		{3, 8, 8, 8}, {8, 4, 4, 16}, {16, 8, 8, 16}, {32, 4, 4, 32},
		{3, 8, 8, 4}, {2, 4, 12, 9}, {1, 2, 8, 13},
	} {
		fused := NewConv2DReLUPool(tc.inC, tc.h, tc.w, tc.outC, tensor.NewRNG(int64(40+i)))
		conv := NewConv2D(tc.inC, tc.h, tc.w, tc.outC, tensor.NewRNG(int64(40+i)))
		pool := NewReLUMaxPool2D(tc.outC, tc.h, tc.w)
		sameBits(t, fmt.Sprintf("%+v W", tc), fused.W.Data, conv.W.Data)
		for o := 1; o < tc.outC; o += 3 {
			clear(fused.W.Data[o*tc.inC*9 : (o+1)*tc.inC*9])
			clear(conv.W.Data[o*tc.inC*9 : (o+1)*tc.inC*9])
		}
		rng := tensor.NewRNG(int64(60 + i))
		for o := range fused.B.Data {
			fused.B.Data[o] = rng.Float64() - 0.5
		}
		plantBoundary(rng, fused.B.Data)
		copy(conv.B.Data, fused.B.Data)
		for _, batch := range []int{5, 2, 7, 50} {
			what := fmt.Sprintf("%+v batch %d", tc, batch)
			x := rng.Uniform(-2, 2, batch, fused.InFeatures())
			plantBoundary(rng, x.Data)
			sameBits(t, what+" out", fused.Forward(x).Data, pool.Forward(conv.Forward(x)).Data)
			grad := rng.Uniform(-1, 1, batch, fused.OutFeatures())
			sprinkle(rng, grad.Data)
			sameBits(t, what+" dx", fused.Backward(grad).Data, conv.Backward(pool.Backward(grad)).Data)
			fused.BackwardParams(grad)
			conv.BackwardParams(pool.Backward(grad))
			sameBits(t, what+" dW", fused.dW.Data, conv.dW.Data)
			sameBits(t, what+" dB", fused.dB.Data, conv.dB.Data)
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
// extra rows; Linear dereferenced nil before a Forward.) A gradient of the
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
		return NewConv2D(2, 4, 4, 3, rng)
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
		{"MaxPool2D", dense, 8, func() (Layer, func(*tensor.Tensor)) { l := NewReLUMaxPool2D(2, 4, 4); return l, backward(l) }},
		{"GlobalAvgPool", dense, 2, func() (Layer, func(*tensor.Tensor)) { l := NewGlobalAvgPool(2, 4, 4); return l, backward(l) }},
		{"Conv2D", dense, 48, func() (Layer, func(*tensor.Tensor)) { c := conv(); return c, backward(c) }},
		{"Conv2D", dense, 48, func() (Layer, func(*tensor.Tensor)) { c := conv(); return c, c.BackwardParams }},
		{"Conv2D", dense, 12, func() (Layer, func(*tensor.Tensor)) { c := NewConv2DReLUPool(2, 4, 4, 3, rng); return c, backward(c) }},
		{"Conv2D", dense, 12, func() (Layer, func(*tensor.Tensor)) {
			c := NewConv2DReLUPool(2, 4, 4, 3, rng)
			return c, c.BackwardParams
		}},
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

// TestConvBoundaryMatchesLoops holds Conv2D's float32 boundary to
// tensor.NarrowPaddedGo, the row loop it ran before tensor.NarrowPadded
// took it (the twin table holds the kernel to it): the padded input and
// the output gradient padded by one (borders still zero), bit for bit,
// NaN payloads included, over planes with their tile pairs side by side
// and stacked, and batches that shrink and grow through one layer.
func TestConvBoundaryMatchesLoops(t *testing.T) {
	rng := tensor.NewRNG(29)
	for _, g := range []tensor.ConvGeom{
		{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 8, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 2, InH: 4, InW: 12, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 1, InH: 6, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 5, InH: 2, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
	} {
		c := NewConv2D(g.InC, g.InH, g.InW, 8, rng)
		// padded narrows planes of h×w with a zero border of one.
		padded := func(src []float64, planes int) []float32 {
			dst := make([]float32, planes*(g.InH+2)*(g.InW+2))
			tensor.NarrowPaddedGo(dst, src, planes, g.InH, g.InW)
			return dst
		}
		for _, batch := range []int{3, 1, 4} {
			what := fmt.Sprintf("%+v batch %d", g, batch)
			x := rng.Uniform(-2, 2, batch, c.InFeatures())
			plantBoundary(rng, x.Data)
			grad := rng.Uniform(-2, 2, batch, c.OutFeatures())
			plantBoundary(rng, grad.Data)
			c.Forward(x)
			c.Backward(grad)
			for _, buf := range []struct {
				name      string
				got, want []float32
			}{{"padded", c.padded, padded(x.Data, batch*g.InC)}, {"dy", c.dy, padded(grad.Data, batch*c.OutC)}} {
				if len(buf.got) != len(buf.want) {
					t.Fatalf("%s %s: %d elements, want %d", what, buf.name, len(buf.got), len(buf.want))
				}
				for i := range buf.want {
					if math.Float32bits(buf.got[i]) != math.Float32bits(buf.want[i]) {
						t.Fatalf("%s %s element %d: %#x, the loop's %#x", what, buf.name, i, math.Float32bits(buf.got[i]), math.Float32bits(buf.want[i]))
					}
				}
			}
		}
	}
}

// TestMaxPoolBackwardMatchesScatter holds MaxPool2D.Backward, which
// writes every input cell once through tensor.Unpool2x2, to
// tensor.Unpool2x2Go, the loop it ran before (dx zeroed, then each
// winner's gradient added; the twin table holds the kernel to it), bit
// for bit, on planes the unpool's assembly takes (rows of a multiple of
// four windows) and ones it does not, with argmax -1 windows and −0, NaN
// and ±Inf gradients, through batches that shrink and grow so a reused dx
// holds the last call's values.
func TestMaxPoolBackwardMatchesScatter(t *testing.T) {
	rng := tensor.NewRNG(31)
	for _, tc := range []struct{ c, h, w int }{
		{8, 8, 8}, {16, 4, 4}, {1, 2, 4}, {3, 4, 16}, {2, 6, 6}, {2, 2, 2},
	} {
		p := NewReLUMaxPool2D(tc.c, tc.h, tc.w)
		inLen, outLen := p.InFeatures(), p.OutFeatures()
		for _, batch := range []int{4, 1, 5} {
			what := fmt.Sprintf("%+v batch %d", tc, batch)
			p.Forward(poolInput(rng, batch, inLen, tc.w))
			grad := rng.Uniform(-1, 1, batch, outLen)
			sprinkle(rng, grad.Data)
			want := make([]float64, batch*inLen)
			tensor.Unpool2x2Go(want, grad.Data, p.argmax, tc.w/2, tc.c*tc.h/2, batch)
			sameBits(t, what+" dx", p.Backward(grad).Data, want)
		}
	}
}
