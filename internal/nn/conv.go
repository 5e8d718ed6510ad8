package nn

import (
	"fmt"
	"math"

	"fedcross/internal/tensor"
)

// Conv2D is a 2-D convolution over CHW images carried in flattened
// (batch × C·H·W) activations. The spatial geometry is fixed at
// construction. The forward pass and both gradients run on tensor's
// direct kernels, which compute in float32: the minibatch is copied once,
// as float32, into a zero-padded buffer and every tap is read from there
// — or, for the input gradient, added into a second, float64 one —
// through two index tables, so no lowered im2col matrix is ever built.
// Parameters, gradients and the activations on either side stay float64;
// the layer converts only in the copies it makes anyway: the padded input
// and the incoming gradient on tensor.NarrowPadded, the input gradient
// out of its padded buffer on tensor.Unpad (each one call a batch), and
// W's kernel layout and the gradient sums in Go loops.
// TestConvMatchesFloat64Reference bounds every result against a float64
// lowering.
type Conv2D struct {
	Geom   tensor.ConvGeom
	OutC   int
	W      *tensor.Tensor // (OutC × InC*KH*KW)
	B      *tensor.Tensor // (OutC)
	dW, dB *tensor.Tensor

	// Index tables of the direct kernels (see tensor.ConvForward), built
	// once from Geom: tapOff[p] locates tap p = (ic, kh, kw) inside one
	// padded sample, posBase[pos] the window origin of output position
	// pos.
	tapOff, posBase []int

	// Reusable workspaces, resized per call so steady-state batches —
	// including a shard's short last one — allocate nothing. padded holds
	// the batch as float32 (InC × (InH+2·Pad) × (InW+2·Pad)) samples and is
	// what backward reads the activations from. Its borders are the
	// convolution's zero padding: they are zero because a fresh buffer is,
	// and stay zero because Forward only ever writes interiors, at offsets
	// that do not depend on the batch size. w is W tap-major in float32,
	// refreshed by every Forward; dy is the incoming gradient in float32;
	// sums the kernel's (taps+1) × OutC gradient sums, dB's last. dpad is
	// the input gradient in padded's layout, in float64, rewritten whole by
	// every Backward; its borders collect the taps that fall outside the
	// image and dx is its interiors.
	padded, w, dy, sums []float32
	out, dpad, dx       *tensor.Tensor
}

// NewConv2D constructs a convolution with the given geometry and output
// channel count, Kaiming-uniform initialised.
func NewConv2D(g tensor.ConvGeom, outC int, rng *tensor.RNG) *Conv2D {
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("nn: Conv2D: %v", err))
	}
	if outC < 1 {
		panic(fmt.Sprintf("nn: Conv2D: %d output channels, want at least 1", outC))
	}
	fanIn := g.InC * g.KH * g.KW
	bound := math.Sqrt(6.0 / float64(fanIn))
	c := &Conv2D{
		Geom: g, OutC: outC,
		W:  rng.Uniform(-bound, bound, outC, fanIn),
		B:  tensor.Zeros(outC),
		dW: tensor.Zeros(outC, fanIn),
		dB: tensor.Zeros(outC),
	}
	ph, pw := g.InH+2*g.Pad, g.InW+2*g.Pad
	for ic := 0; ic < g.InC; ic++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				c.tapOff = append(c.tapOff, (ic*ph+kh)*pw+kw)
			}
		}
	}
	for oy := 0; oy < g.OutH(); oy++ {
		for ox := 0; ox < g.OutW(); ox++ {
			c.posBase = append(c.posBase, oy*g.Stride*pw+ox*g.Stride)
		}
	}
	return c
}

// InFeatures returns the flattened input width the layer expects.
func (c *Conv2D) InFeatures() int { return c.Geom.InC * c.Geom.InH * c.Geom.InW }

// OutFeatures returns the flattened output width the layer produces.
func (c *Conv2D) OutFeatures() int { return c.OutC * c.Geom.OutH() * c.Geom.OutW() }

// paddedLen is the length of one zero-padded sample.
func (c *Conv2D) paddedLen() int {
	g := c.Geom
	return g.InC * (g.InH + 2*g.Pad) * (g.InW + 2*g.Pad)
}

// resize returns buf with length n, reusing its storage when it can.
// Elements past the old length keep what they held, zero for a fresh
// buffer.
func resize(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// Forward convolves the whole batch: per element a float32 chain over the
// taps ascending from +0, widened, then the bias added in float64.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkBatch("Conv2D", x, c.InFeatures())
	batch := x.Shape[0]
	taps, g := len(c.tapOff), c.Geom
	c.padded = resize(c.padded, batch*c.paddedLen())
	tensor.NarrowPadded(c.padded, x.Data, batch*g.InC, g.InH, g.InW, g.Pad)
	c.w = resize(c.w, taps*c.OutC)
	w, outC := c.w, c.OutC
	for oc := 0; oc < outC; oc++ {
		for p, v := range c.W.Data[oc*taps : (oc+1)*taps] {
			w[p*outC+oc] = float32(v)
		}
	}
	c.out = tensor.Ensure(c.out, batch, c.OutFeatures())
	tensor.ConvForward(c.out.Data, c.padded, c.w, c.B.Data, c.tapOff, c.posBase, batch, c.paddedLen(), c.OutC)
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
	batch := grad.Shape[0]
	taps := len(c.tapOff)
	c.dy = resize(c.dy, len(grad.Data))
	tensor.NarrowPadded(c.dy, grad.Data, 1, 1, len(grad.Data), 0)
	c.sums = resize(c.sums, (taps+1)*c.OutC)
	tensor.ConvGradParams(c.sums, c.padded, c.dy, c.tapOff, c.posBase, batch, c.paddedLen(), c.OutC)
	sums, outC := c.sums, c.OutC
	for oc := 0; oc < outC; oc++ {
		dw := c.dW.Data[oc*taps : (oc+1)*taps]
		for p := range dw {
			dw[p] += float64(sums[p*outC+oc])
		}
		c.dB.Data[oc] += float64(sums[taps*outC+oc])
	}
}

// Backward accumulates dW/dB and returns the input gradient. A caller
// that drops the result wants BackwardParams.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c.BackwardParams(grad)
	return c.backwardInput(grad.Shape[0])
}

// backwardInput forms dLoss/dInput from the float32 gradient
// BackwardParams converted: the kernel adds every tap's term into a
// zeroed padded sample — col2im's scatter, in col2im's order, through the
// forward's tables — and tensor.Unpad copies their interiors out to dx.
func (c *Conv2D) backwardInput(batch int) *tensor.Tensor {
	c.dpad = tensor.Ensure(c.dpad, batch, c.paddedLen())
	tensor.ConvGradInput(c.dpad.Data, c.dy, c.w, c.tapOff, c.posBase, batch, c.paddedLen(), c.OutC)
	c.dx = tensor.Ensure(c.dx, batch, c.InFeatures())
	g := c.Geom
	tensor.Unpad(c.dx.Data, c.dpad.Data, batch*g.InC, g.InH, g.InW, g.Pad)
	return c.dx
}

// Params returns {W, B}.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads returns {dW, dB}.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.dW, c.dB} }
