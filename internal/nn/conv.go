package nn

import (
	"math"

	"fedcross/internal/tensor"
)

// Conv2D is a 2-D convolution over CHW images carried in flattened
// (batch × C·H·W) activations. The spatial geometry is fixed at
// construction. The forward pass and both gradients run on tensor's
// direct kernels: the minibatch is copied once into a zero-padded buffer
// and every tap is read from there — or, for the input gradient, added
// into a second one — through two index tables, so no lowered im2col
// matrix is ever built. Per element the arithmetic is still the
// per-sample lowering's — Im2ColTo + MatMulTo + bias forward, one
// MatMulTransBAcc per sample for dW, MatMulTransATo + Col2ImTo for dx —
// which TestConvDirectMatchesLowered holds to the bit.
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

	// Reusable workspaces, refreshed per call via tensor.Ensure so
	// steady-state batches — including a shard's short last one —
	// allocate nothing. padded holds the batch as (InC × (InH+2·Pad) ×
	// (InW+2·Pad)) samples and is what backward reads the activations
	// from. Its borders are the convolution's zero padding: they are zero
	// because a fresh buffer is, and stay zero because Forward only ever
	// writes interiors, at offsets that do not depend on the batch size.
	// wt, gt and dyt are the kernels' channel-lane layouts of W, of
	// {dW, dB} and of the incoming gradient. dpad is the input gradient
	// in padded's layout, rewritten whole by every Backward; its borders
	// collect the taps that fall outside the image and dx is its
	// interiors.
	padded, wt, gt, dyt *tensor.Tensor
	out, dpad, dx       *tensor.Tensor
}

// NewConv2D constructs a convolution with the given geometry and output
// channel count, Kaiming-uniform initialised.
func NewConv2D(g tensor.ConvGeom, outC int, rng *tensor.RNG) *Conv2D {
	if err := g.Validate(); err != nil {
		panic(err)
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

// convForwardFunc, convGradFunc and convGradInputFunc are the signatures
// of tensor's direct kernels; the tests pass the scalar twins through
// them.
type (
	convForwardFunc   func(out, in, wt, bias []float64, tapOff, posBase []int, batch, sampleLen, outC int)
	convGradFunc      func(gt, in, dyt []float64, tapOff, posBase []int, batch, sampleLen, outC int)
	convGradInputFunc func(dpad, dy, w []float64, tapOff, posBase []int, batch, sampleLen, outC int)
)

// copyRows copies n rows of w elements from src, whose rows start
// srcStride apart, to dst, whose rows start dstStride apart.
func copyRows(dst, src []float64, n, w, dstStride, srcStride int) {
	for y := 0; y < n; y++ {
		copy(dst[y*dstStride:y*dstStride+w], src[y*srcStride:y*srcStride+w])
	}
}

// interior returns padded plane `plane` of buf (the batch is batch·InC
// planes back to back) from its first in-image element on.
func (c *Conv2D) interior(buf []float64, plane int) []float64 {
	g := c.Geom
	ph, pw := g.InH+2*g.Pad, g.InW+2*g.Pad
	return buf[(plane*ph+g.Pad)*pw+g.Pad:]
}

// Forward convolves the whole batch. Per element the arithmetic — taps
// ascending from +0, one multiply and one add each, the bias last — is
// the per-sample lowering's, so activations are bit-identical to it.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	return c.forward(x, tensor.ConvForward)
}

func (c *Conv2D) forward(x *tensor.Tensor, kernel convForwardFunc) *tensor.Tensor {
	checkBatch("Conv2D", x, c.InFeatures())
	batch := x.Shape[0]
	spatial := len(c.posBase)
	taps := len(c.tapOff)
	oc8 := tensor.ConvLanes(c.OutC)

	// Copy the image rows into the interiors of the padded planes.
	c.padded = tensor.Ensure(c.padded, batch, c.paddedLen())
	g := c.Geom
	plane, pw := g.InH*g.InW, g.InW+2*g.Pad
	for i := 0; i < batch*g.InC; i++ {
		copyRows(c.interior(c.padded.Data, i), x.Data[i*plane:], g.InH, g.InW, pw, g.InW)
	}

	c.wt = tensor.Ensure(c.wt, taps, oc8)
	tensor.TransposeTo(c.wt.Data, c.W.Data, c.OutC, taps, taps, oc8)
	c.out = tensor.Ensure(c.out, batch, c.OutC*spatial)
	kernel(c.out.Data, c.padded.Data, c.wt.Data, c.B.Data, c.tapOff, c.posBase, batch, c.paddedLen(), c.OutC)
	return c.out
}

// BackwardParams accumulates dW and dB from dLoss/dOutput and the
// activations Forward cached, without forming dLoss/dInput. The chains
// are the ones Backward runs, so the gradients are the same bits.
func (c *Conv2D) BackwardParams(grad *tensor.Tensor) {
	c.backwardParams(grad, tensor.ConvGradParams)
}

func (c *Conv2D) backwardParams(grad *tensor.Tensor, kernel convGradFunc) {
	c.checkGrad(grad)
	batch := grad.Shape[0]
	spatial := len(c.posBase)
	taps := len(c.tapOff)
	oc8 := tensor.ConvLanes(c.OutC)

	// Sample-major (OutC × spatial) gradients into (spatial × oc8) lanes.
	c.dyt = tensor.Ensure(c.dyt, batch, spatial*oc8)
	for b := 0; b < batch; b++ {
		tensor.TransposeTo(c.dyt.Data[b*spatial*oc8:(b+1)*spatial*oc8], grad.Data[b*c.OutC*spatial:(b+1)*c.OutC*spatial],
			c.OutC, spatial, spatial, oc8)
	}
	// The kernel accumulates samples in order onto the gradients' current
	// values, so they ride along in its layout: dWᵀ, then dB as the last
	// row.
	c.gt = tensor.Ensure(c.gt, taps+1, oc8)
	tensor.TransposeTo(c.gt.Data, c.dW.Data, c.OutC, taps, taps, oc8)
	copy(c.gt.Data[taps*oc8:], c.dB.Data)
	kernel(c.gt.Data, c.padded.Data, c.dyt.Data, c.tapOff, c.posBase, batch, c.paddedLen(), c.OutC)
	tensor.TransposeTo(c.dW.Data, c.gt.Data, taps, c.OutC, oc8, taps)
	copy(c.dB.Data, c.gt.Data[taps*oc8:])
}

// checkGrad panics unless grad is a gradient of the batch Forward cached
// (none before the first Forward): the kernels below pair it row by row
// with those activations.
func (c *Conv2D) checkGrad(grad *tensor.Tensor) {
	checkBatch("Conv2D.Backward", grad, c.OutFeatures())
	batch := 0
	if c.padded != nil {
		batch = c.padded.Shape[0]
	}
	checkGradBatch("Conv2D", grad, batch)
}

// Backward accumulates dW/dB and returns the input gradient. A caller
// that drops the result wants BackwardParams.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c.BackwardParams(grad)
	return c.backwardInput(grad, tensor.ConvGradInput)
}

// backwardInput forms dLoss/dInput: the kernel adds every tap's term into
// a zeroed padded sample — col2im's scatter, in col2im's order, through
// the forward's tables — and dx is the interiors of those.
func (c *Conv2D) backwardInput(grad *tensor.Tensor, kernel convGradInputFunc) *tensor.Tensor {
	batch := grad.Shape[0]
	c.dpad = tensor.Ensure(c.dpad, batch, c.paddedLen())
	kernel(c.dpad.Data, grad.Data, c.W.Data, c.tapOff, c.posBase, batch, c.paddedLen(), c.OutC)
	c.dx = tensor.Ensure(c.dx, batch, c.InFeatures())
	g := c.Geom
	plane, pw := g.InH*g.InW, g.InW+2*g.Pad
	for i := 0; i < batch*g.InC; i++ {
		copyRows(c.dx.Data[i*plane:], c.interior(c.dpad.Data, i), g.InH, g.InW, g.InW, pw)
	}
	return c.dx
}

// Params returns {W, B}.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads returns {dW, dB}.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.dW, c.dB} }
