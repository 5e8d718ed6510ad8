package nn

import (
	"math"

	"fedcross/internal/tensor"
)

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
	r.dx = tensor.Ensure(r.dx, grad.Shape...)
	tensor.ReluBackward(r.dx.Data, grad.Data, r.mask)
	return r.dx
}

// Params returns nil: ReLU has no parameters.
func (r *ReLU) Params() []*tensor.Tensor { return nil }

// Grads returns nil.
func (r *ReLU) Grads() []*tensor.Tensor { return nil }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	y  *tensor.Tensor
	dx *tensor.Tensor
}

// NewTanh returns a Tanh layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh elementwise.
func (t *Tanh) Forward(x *tensor.Tensor) *tensor.Tensor {
	t.y = tensor.ApplyTo(tensor.Ensure(t.y, x.Shape...), x, math.Tanh)
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

// Params returns nil.
func (t *Tanh) Params() []*tensor.Tensor { return nil }

// Grads returns nil.
func (t *Tanh) Grads() []*tensor.Tensor { return nil }

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// Sigmoid is the logistic activation.
type Sigmoid struct {
	y  *tensor.Tensor
	dx *tensor.Tensor
}

// NewSigmoid returns a Sigmoid layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Forward applies the logistic function elementwise.
func (s *Sigmoid) Forward(x *tensor.Tensor) *tensor.Tensor {
	s.y = tensor.ApplyTo(tensor.Ensure(s.y, x.Shape...), x, sigmoid)
	return s.y
}

// Backward multiplies by y(1-y).
func (s *Sigmoid) Backward(grad *tensor.Tensor) *tensor.Tensor {
	s.dx = tensor.Ensure(s.dx, grad.Shape...)
	for i, v := range grad.Data {
		s.dx.Data[i] = v * s.y.Data[i] * (1 - s.y.Data[i])
	}
	return s.dx
}

// Params returns nil.
func (s *Sigmoid) Params() []*tensor.Tensor { return nil }

// Grads returns nil.
func (s *Sigmoid) Grads() []*tensor.Tensor { return nil }
