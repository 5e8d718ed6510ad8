package nn

import "fedcross/internal/tensor"

// ReLU is the rectified linear activation, applied elementwise.
type ReLU struct {
	mask    []bool
	out, dx *tensor.Tensor
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward zeroes negative inputs and records the active mask.
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	r.out = tensor.Ensure(r.out, x.Shape...)
	if cap(r.mask) < len(x.Data) {
		r.mask = make([]bool, len(x.Data))
	}
	r.mask = r.mask[:len(x.Data)]
	tensor.ReluForward(r.out.Data, x.Data, r.mask)
	return r.out
}

// Backward gates the incoming gradient by the active mask.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	checkGradShape("ReLU", grad, r.out)
	r.dx = tensor.Ensure(r.dx, grad.Shape...)
	tensor.ReluBackward(r.dx.Data, grad.Data, r.mask)
	return r.dx
}

// Params returns nil: ReLU has no parameters.
func (r *ReLU) Params() []*tensor.Tensor { return nil }

// Grads returns nil.
func (r *ReLU) Grads() []*tensor.Tensor { return nil }
