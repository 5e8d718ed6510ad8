package nn

import (
	"math"
	"testing"

	"fedcross/internal/tensor"
)

// Tanh is the hyperbolic-tangent activation, the gradient checks' smooth
// non-linearity: with no kink, central differences never straddle one.
type Tanh struct{ y, dx *tensor.Tensor }

func NewTanh() *Tanh { return &Tanh{} }

func (t *Tanh) Forward(x *tensor.Tensor) *tensor.Tensor {
	t.y = tensor.Ensure(t.y, x.Shape...)
	for i, v := range x.Data {
		t.y.Data[i] = math.Tanh(v)
	}
	return t.y
}

// Backward multiplies by 1 - tanh².
func (t *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	t.dx = tensor.Ensure(t.dx, grad.Shape...)
	for i, v := range grad.Data {
		t.dx.Data[i] = v * (1 - t.y.Data[i]*t.y.Data[i])
	}
	return t.dx
}

func (t *Tanh) Params() []*tensor.Tensor { return nil }
func (t *Tanh) Grads() []*tensor.Tensor  { return nil }

// lossOf runs a forward pass through net and returns the cross-entropy
// loss against labels.
func lossOf(net *Sequential, x *tensor.Tensor, labels []int) float64 {
	logits := net.Forward(x)
	loss, _ := SoftmaxCrossEntropy(logits, labels)
	return loss
}

// gradCheck compares the analytic parameter gradients of net against
// central differences for a random subset of coordinates.
func gradCheck(t *testing.T, name string, net *Sequential, x *tensor.Tensor, labels []int, tol float64) {
	t.Helper()
	net.ZeroGrads()
	logits := net.Forward(x)
	_, dlogits := SoftmaxCrossEntropy(logits, labels)
	net.Backward(dlogits)

	params := net.Params()
	grads := net.Grads()
	rng := tensor.NewRNG(123)
	const eps = 1e-5
	checked := 0
	for pi, p := range params {
		// Check up to 6 coordinates per tensor.
		n := p.Len()
		for k := 0; k < 6 && k < n; k++ {
			j := rng.Intn(n)
			orig := p.Data[j]
			p.Data[j] = orig + eps
			lp := lossOf(net, x, labels)
			p.Data[j] = orig - eps
			lm := lossOf(net, x, labels)
			p.Data[j] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := grads[pi].Data[j]
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if math.Abs(numeric-analytic)/scale > tol {
				t.Fatalf("%s: param %d coord %d: analytic %.8g vs numeric %.8g", name, pi, j, analytic, numeric)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatalf("%s: no parameters checked", name)
	}
}

func TestGradCheckLinear(t *testing.T) {
	rng := tensor.NewRNG(1)
	net := NewSequential(NewLinear(5, 4, rng), NewReLU(), NewLinear(4, 3, rng))
	x := rng.Randn(1, 4, 5)
	gradCheck(t, "linear-relu-linear", net, x, []int{0, 2, 1, 0}, 1e-5)
}

// The convolution gradient checks run on refConv, the float64 lowering
// (conv_test.go), at geometries of their own — the 5×5 plane and stride 2
// are ones Conv2D does not take: central differences at eps 1e-5 cannot
// see through Conv2D's float32 kernels, so the product layer is held to
// refConv by TestConvMatchesFloat64Reference instead. The pools in front
// of which it stands are the product layers.

func TestGradCheckConv(t *testing.T) {
	rng := tensor.NewRNG(3)
	g := tensor.ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv := newRefConv(g, 3, rng)
	net := NewSequential(conv, NewReLU(), NewLinear(conv.OutFeatures(), 3, rng))
	x := rng.Randn(1, 2, 2*5*5)
	gradCheck(t, "conv", net, x, []int{0, 2}, 1e-5)
}

func TestGradCheckConvStride(t *testing.T) {
	rng := tensor.NewRNG(4)
	g := tensor.ConvGeom{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 2, Pad: 0}
	conv := newRefConv(g, 2, rng)
	net := NewSequential(conv, NewLinear(conv.OutFeatures(), 2, rng))
	x := rng.Randn(1, 2, 36)
	gradCheck(t, "conv-stride2", net, x, []int{1, 0}, 1e-5)
}

func TestGradCheckMaxPool(t *testing.T) {
	rng := tensor.NewRNG(5)
	g := tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	pool := NewReLUMaxPool2D(2, 4, 4)
	net := NewSequential(newRefConv(g, 2, rng), pool, NewLinear(pool.OutFeatures(), 3, rng))
	x := rng.Randn(1, 2, 16)
	gradCheck(t, "maxpool", net, x, []int{2, 1}, 1e-5)
}

func TestGradCheckGlobalAvgPool(t *testing.T) {
	rng := tensor.NewRNG(6)
	g := tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	net := NewSequential(newRefConv(g, 4, rng), NewGlobalAvgPool(4, 4, 4), NewLinear(4, 3, rng))
	x := rng.Randn(1, 2, 16)
	gradCheck(t, "gap", net, x, []int{0, 1}, 1e-5)
}

func TestGradCheckResidualIdentity(t *testing.T) {
	rng := tensor.NewRNG(7)
	body := NewSequential(NewLinear(6, 6, rng), NewTanh(), NewLinear(6, 6, rng))
	net := NewSequential(NewResidual(body), NewLinear(6, 2, rng))
	x := rng.Randn(1, 3, 6)
	gradCheck(t, "residual-id", net, x, []int{0, 1, 1}, 1e-5)
}

func TestGradCheckLSTM(t *testing.T) {
	rng := tensor.NewRNG(9)
	lstm := NewLSTM(4, 3, 5, rng) // T=4 D=3 H=5
	net := NewSequential(lstm, NewLinear(5, 3, rng))
	x := rng.Randn(1, 2, 12)
	gradCheck(t, "lstm", net, x, []int{2, 0}, 1e-4)
}

func TestGradCheckEmbeddingLSTM(t *testing.T) {
	rng := tensor.NewRNG(10)
	emb := NewEmbedding(7, 3, rng)
	lstm := NewLSTM(5, 3, 4, rng)
	net := NewSequential(emb, lstm, NewLinear(4, 2, rng))
	x := tensor.New([]float64{0, 3, 6, 2, 1, 5, 5, 4, 0, 1}, 2, 5)
	gradCheck(t, "embedding-lstm", net, x, []int{1, 0}, 1e-4)
}

func TestGradCheckInputGradient(t *testing.T) {
	// Verify dLoss/dInput (needed by SCAFFOLD-style analyses and FedGen's
	// generator training) with central differences on the input.
	rng := tensor.NewRNG(11)
	net := NewSequential(NewLinear(4, 5, rng), NewTanh(), NewLinear(5, 3, rng))
	x := rng.Randn(1, 2, 4)
	labels := []int{2, 0}
	net.ZeroGrads()
	logits := net.Forward(x)
	_, dlogits := SoftmaxCrossEntropy(logits, labels)
	dx := net.Backward(dlogits)

	const eps = 1e-5
	for j := 0; j < x.Len(); j++ {
		orig := x.Data[j]
		x.Data[j] = orig + eps
		lp := lossOf(net, x, labels)
		x.Data[j] = orig - eps
		lm := lossOf(net, x, labels)
		x.Data[j] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-dx.Data[j]) > 1e-6*math.Max(1, math.Abs(numeric)) {
			t.Fatalf("input grad %d: analytic %.8g vs numeric %.8g", j, dx.Data[j], numeric)
		}
	}
}
