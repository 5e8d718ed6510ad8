package nn

import (
	"fmt"

	"fedcross/internal/tensor"
)

// MaxPool2D is a ReLU followed by non-overlapping 2×2 stride-2 max
// pooling over CHW images carried in flattened activations, in one pass
// over them: one tensor.MaxPool2x2 call a sample. It visits a window's
// taps in (dy, dx) order and keeps the first strictly greater than a
// running maximum that begins at +0, so ties keep the earliest tap and
// NaN never wins. That is the rectified window's maximum, bit for bit in
// both directions: a window with nothing positive outputs +0, records
// argmax -1 and routes no gradient — the pool alone would have routed it
// to a tap the ReLU gates to zero.
type MaxPool2D struct {
	C, H, W int // input geometry

	argmax  []int // flat input index chosen per output element, per batch
	batch   int
	out, dx *tensor.Tensor
}

// NewReLUMaxPool2D constructs the layer for C×H×W inputs; H and W must
// be even. Behind a convolution, build NewConv2DReLUPool instead, which
// folds both into the convolution's output transform; the zoo's one
// standalone pool is ResNetMini's, after a residual block.
func NewReLUMaxPool2D(c, h, w int) *MaxPool2D {
	if c < 1 || h < 1 || w < 1 {
		panic(fmt.Sprintf("nn: MaxPool2D: %d channels of %dx%d, want each at least 1", c, h, w))
	}
	if h%2 != 0 || w%2 != 0 {
		panic(fmt.Sprintf("nn: MaxPool2D: %dx%d planes, want an even number of rows and columns", h, w))
	}
	return &MaxPool2D{C: c, H: h, W: w}
}

// InFeatures returns the flattened input width.
func (p *MaxPool2D) InFeatures() int { return p.C * p.H * p.W }

// OutFeatures returns the flattened output width.
func (p *MaxPool2D) OutFeatures() int { return p.C * (p.H / 2) * (p.W / 2) }

// Forward takes the max over each 2×2 window and +0.
func (p *MaxPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkBatch("MaxPool2D", x, p.InFeatures())
	batch := x.Shape[0]
	p.batch = batch
	outLen, inLen := p.OutFeatures(), p.InFeatures()
	p.out = tensor.Ensure(p.out, batch, outLen)
	if cap(p.argmax) < batch*outLen {
		p.argmax = make([]int, batch*outLen)
	}
	p.argmax = p.argmax[:batch*outLen]
	for b := 0; b < batch; b++ {
		tensor.MaxPool2x2(p.out.Data[b*outLen:(b+1)*outLen], p.argmax[b*outLen:(b+1)*outLen],
			x.Data[b*inLen:(b+1)*inLen], p.H/2, p.W/2, p.C)
	}
	return p.out
}

// Backward routes each output gradient to the input element that won the
// max; a window without a winner (argmax -1) routes nothing. It writes
// every input cell once, +0 + g at the winner and +0 elsewhere in its
// window, in one tensor.Unpool2x2 call for the batch.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	checkBatch("MaxPool2D.Backward", grad, p.OutFeatures())
	checkGradBatch("MaxPool2D", grad, p.out)
	p.dx = tensor.Ensure(p.dx, p.batch, p.InFeatures())
	tensor.Unpool2x2(p.dx.Data, grad.Data, p.argmax, p.W/2, p.C*p.H/2, p.batch)
	return p.dx
}

// Params returns nil.
func (p *MaxPool2D) Params() []*tensor.Tensor { return nil }

// Grads returns nil.
func (p *MaxPool2D) Grads() []*tensor.Tensor { return nil }

// GlobalAvgPool averages each channel's spatial plane, mapping
// (batch × C·H·W) to (batch × C). ResNet-style heads use it before the
// final Linear.
type GlobalAvgPool struct {
	C, H, W int
	batch   int
	out, dx *tensor.Tensor
}

// NewGlobalAvgPool constructs a global average pool for C×H×W inputs.
func NewGlobalAvgPool(c, h, w int) *GlobalAvgPool {
	if c < 1 || h < 1 || w < 1 {
		panic(fmt.Sprintf("nn: GlobalAvgPool: %d channels of %dx%d, want each at least 1", c, h, w))
	}
	return &GlobalAvgPool{C: c, H: h, W: w}
}

// Forward averages over the spatial plane of each channel.
func (p *GlobalAvgPool) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkBatch("GlobalAvgPool", x, p.C*p.H*p.W)
	batch := x.Shape[0]
	p.batch = batch
	plane := p.H * p.W
	p.out = tensor.Ensure(p.out, batch, p.C)
	out := p.out
	for b := 0; b < batch; b++ {
		src := x.Data[b*p.C*plane : (b+1)*p.C*plane]
		for c := 0; c < p.C; c++ {
			s := 0.0
			for _, v := range src[c*plane : (c+1)*plane] {
				s += v
			}
			out.Data[b*p.C+c] = s / float64(plane)
		}
	}
	return out
}

// Backward spreads each channel gradient uniformly over its plane.
func (p *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	checkBatch("GlobalAvgPool.Backward", grad, p.C)
	checkGradBatch("GlobalAvgPool", grad, p.out)
	plane := p.H * p.W
	inv := 1.0 / float64(plane)
	p.dx = tensor.Ensure(p.dx, p.batch, p.C*plane)
	dx := p.dx
	for b := 0; b < p.batch; b++ {
		for c := 0; c < p.C; c++ {
			g := grad.Data[b*p.C+c] * inv
			dst := dx.Data[b*p.C*plane+c*plane : b*p.C*plane+(c+1)*plane]
			for i := range dst {
				dst[i] = g
			}
		}
	}
	return dx
}

// Params returns nil.
func (p *GlobalAvgPool) Params() []*tensor.Tensor { return nil }

// Grads returns nil.
func (p *GlobalAvgPool) Grads() []*tensor.Tensor { return nil }
