package nn

import (
	"fmt"
	"math"

	"fedcross/internal/tensor"
)

// MaxPool2D performs non-overlapping max pooling over CHW images carried in
// flattened activations. Kernel size equals stride (the common 2×2/2 case).
// Every path visits a window's taps in (dy, dx) order and keeps the first
// strictly greater than the running maximum, which begins at start, so
// ties keep the earliest tap and NaN never wins. A window with no winner
// outputs start, records argmax -1 and has no sub-gradient: Backward
// routes nothing for it.
//
// start is -Inf for a plain pool (no winner: all NaN or all -Inf). With
// start +0 the layer is ReLU followed by that pool, bit for bit in both
// directions: the rectified window's maximum is its first strict winner
// over a +0 floor, or +0 when nothing is positive — and then the pool
// would have routed the gradient to a tap the ReLU gates to zero, which
// is what argmax -1 routes.
type MaxPool2D struct {
	C, H, W int // input geometry
	K       int // kernel = stride

	start   float64
	argmax  []int // flat input index chosen per output element, per batch
	batch   int
	out, dx *tensor.Tensor
}

// NewMaxPool2D constructs a pooling layer for C×H×W inputs with kernel k.
// H and W must be divisible by k.
func NewMaxPool2D(c, h, w, k int) *MaxPool2D {
	if k <= 0 || h%k != 0 || w%k != 0 {
		panic(fmt.Sprintf("nn: MaxPool2D: kernel %d must divide %dx%d", k, h, w))
	}
	return &MaxPool2D{C: c, H: h, W: w, K: k, start: math.Inf(-1)}
}

// NewReLUMaxPool2D constructs the layer that computes NewReLU followed by
// NewMaxPool2D(c, h, w, k) — same outputs, same input gradients — in the
// pool's one pass over the activations.
func NewReLUMaxPool2D(c, h, w, k int) *MaxPool2D {
	p := NewMaxPool2D(c, h, w, k)
	p.start = 0
	return p
}

// InFeatures returns the flattened input width.
func (p *MaxPool2D) InFeatures() int { return p.C * p.H * p.W }

// OutFeatures returns the flattened output width.
func (p *MaxPool2D) OutFeatures() int { return p.C * (p.H / p.K) * (p.W / p.K) }

// Forward takes the max over each k×k window.
func (p *MaxPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkBatch("MaxPool2D", x, p.InFeatures())
	batch := x.Shape[0]
	p.batch = batch
	oh, ow := p.H/p.K, p.W/p.K
	outLen := p.C * oh * ow
	p.out = tensor.Ensure(p.out, batch, outLen)
	out := p.out
	if cap(p.argmax) < batch*outLen {
		p.argmax = make([]int, batch*outLen)
	}
	p.argmax = p.argmax[:batch*outLen]
	inLen := p.InFeatures()
	for b := 0; b < batch; b++ {
		src := x.Data[b*inLen : (b+1)*inLen]
		dst := out.Data[b*outLen : (b+1)*outLen]
		am := p.argmax[b*outLen : (b+1)*outLen]
		if p.K != 2 {
			p.poolGeneric(dst, am, src)
		} else if !tensor.MaxPool2x2(dst, am, src, p.W, oh, ow, p.C, p.start) {
			// Planes the vector kernel declines (ow%4 != 0, bar 4-wide
			// planes with an even number of row pairs).
			maxPool2x2(dst, am, src, p.W, oh*p.C, ow, p.start)
		}
	}
	return out
}

// maxPool2x2 is the scalar 2×2/2 pool: one sweep over the row pairs of
// stacked planes (src holds `pairs` row pairs of width w back to back, so
// channel planes need no loop of their own), each window's four taps
// tested in (dy, dx) order against a maximum that begins at start.
func maxPool2x2(dst []float64, am []int, src []float64, w, pairs, ow int, start float64) {
	for r := 0; r < pairs; r++ {
		top := src[2*r*w : (2*r+1)*w]
		bot := src[(2*r+1)*w : (2*r+2)*w]
		drow := dst[r*ow : (r+1)*ow]
		arow := am[r*ow : (r+1)*ow]
		for ox := range drow {
			best, bestIdx := start, -1
			if v := top[2*ox]; v > best {
				best, bestIdx = v, 2*r*w+2*ox
			}
			if v := top[2*ox+1]; v > best {
				best, bestIdx = v, 2*r*w+2*ox+1
			}
			if v := bot[2*ox]; v > best {
				best, bestIdx = v, (2*r+1)*w+2*ox
			}
			if v := bot[2*ox+1]; v > best {
				best, bestIdx = v, (2*r+1)*w+2*ox+1
			}
			drow[ox], arow[ox] = best, bestIdx
		}
	}
}

// poolGeneric pools one sample with any kernel size.
func (p *MaxPool2D) poolGeneric(dst []float64, am []int, src []float64) {
	oh, ow := p.H/p.K, p.W/p.K
	for c := 0; c < p.C; c++ {
		obase := c * oh * ow
		ibase := c * p.H * p.W
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := p.start
				bestIdx := -1
				for dy := 0; dy < p.K; dy++ {
					for dx := 0; dx < p.K; dx++ {
						idx := ibase + (oy*p.K+dy)*p.W + (ox*p.K + dx)
						if src[idx] > best {
							best = src[idx]
							bestIdx = idx
						}
					}
				}
				o := obase + oy*ow + ox
				dst[o] = best
				am[o] = bestIdx
			}
		}
	}
}

// Backward routes each output gradient to the input element that won the
// max; a window without a winner (argmax -1) routes nothing.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	checkBatch("MaxPool2D.Backward", grad, p.OutFeatures())
	checkGradBatch("MaxPool2D", grad, p.out)
	inLen := p.InFeatures()
	outLen := p.OutFeatures()
	p.dx = tensor.Ensure(p.dx, p.batch, inLen)
	dx := p.dx
	dx.Zero()
	for b := 0; b < p.batch; b++ {
		g := grad.Data[b*outLen : (b+1)*outLen]
		am := p.argmax[b*outLen : (b+1)*outLen]
		dst := dx.Data[b*inLen : (b+1)*inLen]
		for o, idx := range am {
			if idx >= 0 {
				dst[idx] += g[o]
			}
		}
	}
	return dx
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
