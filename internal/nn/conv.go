package nn

import (
	"fmt"
	"math"

	"fedcross/internal/tensor"
)

// Conv2D is a 2-D convolution over CHW images carried in flattened
// (batch × C·H·W) activations, of a geometry fixed at construction: a
// 3×3 kernel at stride 1 and padding 1 over planes tensor.NewWinograd
// takes, as every convolution of the model zoo is. It runs on tensor's
// Winograd kernels (tensor.Winograd: F(2×2, 3×3) forward and input
// gradient, F(3×3, 2×2) weight gradient) in float32, from the minibatch
// and the incoming gradient copied once each, as float32, into
// zero-padded buffers; no lowered im2col matrix is ever built, and a NaN
// or ±Inf operand poisons its whole 2×2 output tile. Parameters,
// gradients and the activations on either side stay float64; the layer
// converts only in those two copies (tensor.NarrowPadded, one call a
// batch each), and the kernels write dx and the float64 gradients
// themselves. TestConvMatchesFloat64Reference bounds every result against
// a float64 lowering.
//
// Built by NewConv2DReLUPool, the layer also rectifies and 2×2 max-pools
// its output inside the Winograd output transform, and its incoming
// gradient is the pooled one, routed into the padded float32 buffer in
// the same one pass that converts it (tensor.UnpoolPadded).
type Conv2D struct {
	Geom   tensor.ConvGeom
	OutC   int
	W      *tensor.Tensor // (OutC × InC*KH*KW)
	B      *tensor.Tensor // (OutC)
	dW, dB *tensor.Tensor

	wino *tensor.Winograd
	pool bool // NewConv2DReLUPool: ReLU and a 2×2 max pool folded in

	// Reusable workspaces, resized per call so steady-state batches —
	// including a shard's short last one — allocate nothing. padded holds
	// the batch as float32 (InC × (InH+2) × (InW+2)) samples and is what
	// backward reads the activations from; dy is the incoming gradient in
	// float32, padded by one the same way. Their borders are the
	// convolution's zero padding: they are zero because a fresh buffer is,
	// and stay zero because only interiors are ever written, at offsets
	// that do not depend on the batch size. taps holds a pooled forward's
	// tap codes, one a window and channel.
	padded, dy []float32
	taps       []int32
	out, dx    *tensor.Tensor
}

// NewConv2D constructs a 3×3 convolution at stride 1 and padding 1 from
// inC h×w planes to outC output channels, Kaiming-uniform initialised.
// It panics on planes the Winograd kernels do not take.
func NewConv2D(inC, h, w, outC int, rng *tensor.RNG) *Conv2D {
	return newConv2D(inC, h, w, outC, rng, false)
}

// NewConv2DReLUPool constructs NewConv2D(inC, h, w, outC, rng) followed
// by NewReLUMaxPool2D(outC, h, w) as one layer: the same parameters, drawn
// from rng the same way, and the same bits in both directions. A 2×2
// output tile of the Winograd transform is one pool window, so the pool
// runs in the output transform (tensor.Winograd.ForwardPool) and no
// full-size output is written or read back.
func NewConv2DReLUPool(inC, h, w, outC int, rng *tensor.RNG) *Conv2D {
	return newConv2D(inC, h, w, outC, rng, true)
}

func newConv2D(inC, h, w, outC int, rng *tensor.RNG, pool bool) *Conv2D {
	g := tensor.ConvGeom{InC: inC, InH: h, InW: w, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("nn: Conv2D: %v", err))
	}
	if outC < 1 {
		panic(fmt.Sprintf("nn: Conv2D: %d output channels, want at least 1", outC))
	}
	wino := tensor.NewWinograd(g, outC)
	if wino == nil {
		panic(fmt.Sprintf("nn: Conv2D: geometry %+v, want one tensor.NewWinograd takes", g))
	}
	fanIn := 9 * g.InC // a 3×3 kernel: nine taps per input channel
	bound := math.Sqrt(6.0 / float64(fanIn))
	return &Conv2D{
		Geom: g, OutC: outC,
		W:    rng.Uniform(-bound, bound, outC, fanIn),
		B:    tensor.Zeros(outC),
		dW:   tensor.Zeros(outC, fanIn),
		dB:   tensor.Zeros(outC),
		wino: wino, pool: pool,
	}
}

// Vector reports whether the layer runs on the Winograd kernels' AVX2
// assembly (tensor.Winograd.Vector) rather than their Go twins.
func (c *Conv2D) Vector() bool { return c.wino.Vector() }

// InFeatures returns the flattened input width the layer expects.
func (c *Conv2D) InFeatures() int { return c.Geom.InC * c.Geom.InH * c.Geom.InW }

// OutFeatures returns the flattened output width the layer produces:
// pooled, a quarter of the convolution's, when the pool is folded in.
func (c *Conv2D) OutFeatures() int {
	if c.pool {
		return c.OutC * c.Geom.InH / 2 * c.Geom.InW / 2
	}
	return c.OutC * c.Geom.OutH() * c.Geom.OutW()
}

// resize returns buf with length n, reusing its storage when it can.
// Elements past the old length keep what they held, zero for a fresh
// buffer.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Forward convolves the whole batch.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkBatch("Conv2D", x, c.InFeatures())
	batch, g := x.Shape[0], c.Geom
	c.padded = resize(c.padded, batch*g.InC*(g.InH+2)*(g.InW+2))
	tensor.NarrowPadded(c.padded, x.Data, batch*g.InC, g.InH, g.InW)
	c.out = tensor.Ensure(c.out, batch, c.OutFeatures())
	c.wino.SetWeights(c.W.Data)
	if c.pool {
		c.taps = resize(c.taps, len(c.out.Data))
		c.wino.ForwardPool(c.out.Data, c.taps, c.padded, c.B.Data, batch)
	} else {
		c.wino.Forward(c.out.Data, c.padded, c.B.Data, batch)
	}
	return c.out
}

// BackwardParams accumulates dW and dB from dLoss/dOutput and the
// activations Forward cached, without forming dLoss/dInput. The chains
// are the ones Backward runs, so the gradients are the same bits.
func (c *Conv2D) BackwardParams(grad *tensor.Tensor) {
	// The kernels pair grad row by row with the padded samples Forward
	// cached (none before the first Forward).
	checkBatch("Conv2D.Backward", grad, c.OutFeatures())
	checkGradBatch("Conv2D", grad, c.out)
	batch, g := grad.Shape[0], c.Geom
	c.dy = resize(c.dy, batch*c.OutC*(g.InH+2)*(g.InW+2))
	if c.pool {
		tensor.UnpoolPadded(c.dy, grad.Data, c.taps, batch*c.OutC, g.InH/2, g.InW/2)
	} else {
		tensor.NarrowPadded(c.dy, grad.Data, batch*c.OutC, g.InH, g.InW)
	}
	c.wino.GradParams(c.dW.Data, c.dB.Data, c.dy, batch)
}

// Backward accumulates dW/dB and returns the input gradient. A caller
// that drops the result wants BackwardParams.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c.BackwardParams(grad)
	return c.backwardInput(grad.Shape[0])
}

// backwardInput forms dLoss/dInput from the float32 gradient
// BackwardParams converted.
func (c *Conv2D) backwardInput(batch int) *tensor.Tensor {
	c.dx = tensor.Ensure(c.dx, batch, c.InFeatures())
	c.wino.GradInput(c.dx.Data, c.dy, batch)
	return c.dx
}

// Params returns {W, B}.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads returns {dW, dB}.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.dW, c.dB} }
