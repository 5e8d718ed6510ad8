package nn

import (
	"fmt"

	"fedcross/internal/tensor"
)

// Residual wraps a body (usually a Sequential of conv/ReLU layers) with an
// identity skip connection: y = body(x) + x. The body must preserve the
// feature width.
type Residual struct {
	Body Layer

	out *tensor.Tensor // reused forward buffer
}

// NewResidual wraps body with an identity skip connection.
func NewResidual(body Layer) *Residual { return &Residual{Body: body} }

// Forward computes body(x) + x.
func (r *Residual) Forward(x *tensor.Tensor) *tensor.Tensor {
	y := r.Body.Forward(x)
	if !tensor.SameShape(y, x) {
		panic(fmt.Sprintf("nn: Residual: body output %v does not match its input %v", y.Shape, x.Shape))
	}
	r.out = tensor.Ensure(r.out, y.Shape...)
	return tensor.AddTo(r.out, y, x)
}

// Backward adds the incoming gradient, the skip path's, to the body's.
func (r *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := r.Body.Backward(grad)
	tensor.AddInPlace(dx, grad)
	return dx
}

// Params returns the body's parameters.
func (r *Residual) Params() []*tensor.Tensor { return r.Body.Params() }

// Grads returns gradients aligned with Params.
func (r *Residual) Grads() []*tensor.Tensor { return r.Body.Grads() }
