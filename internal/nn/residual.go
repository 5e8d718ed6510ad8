package nn

import (
	"fmt"

	"fedcross/internal/tensor"
)

// Residual wraps a body (usually a Sequential of conv/ReLU layers) with a
// skip connection: y = body(x) + proj(x). When the body preserves the
// feature width the projection is the identity; otherwise callers supply a
// projection layer (typically a 1×1 conv or Linear).
type Residual struct {
	Body Layer
	Proj Layer // nil means identity skip

	out *tensor.Tensor // reused forward buffer
}

// NewResidual wraps body with an identity skip connection.
func NewResidual(body Layer) *Residual { return &Residual{Body: body} }

// NewResidualProj wraps body with a learned projection on the skip path,
// for blocks that change the feature width.
func NewResidualProj(body, proj Layer) *Residual {
	return &Residual{Body: body, Proj: proj}
}

// Forward computes body(x) + skip(x).
func (r *Residual) Forward(x *tensor.Tensor) *tensor.Tensor {
	y := r.Body.Forward(x)
	var skip *tensor.Tensor
	if r.Proj != nil {
		skip = r.Proj.Forward(x)
	} else {
		skip = x
	}
	if !tensor.SameShape(y, skip) {
		panic(fmt.Sprintf("nn: Residual: body output %v does not match skip %v (need a projection)", y.Shape, skip.Shape))
	}
	r.out = tensor.Ensure(r.out, y.Shape...)
	return tensor.AddTo(r.out, y, skip)
}

// Backward splits the incoming gradient between the body and the skip path.
func (r *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := r.Body.Backward(grad)
	if r.Proj != nil {
		tensor.AddInPlace(dx, r.Proj.Backward(grad))
	} else {
		tensor.AddInPlace(dx, grad)
	}
	return dx
}

// Params returns the body's parameters followed by the projection's.
func (r *Residual) Params() []*tensor.Tensor {
	ps := r.Body.Params()
	if r.Proj != nil {
		ps = append(ps, r.Proj.Params()...)
	}
	return ps
}

// Grads returns gradients aligned with Params.
func (r *Residual) Grads() []*tensor.Tensor {
	gs := r.Body.Grads()
	if r.Proj != nil {
		gs = append(gs, r.Proj.Grads()...)
	}
	return gs
}
