// Package nn is a from-scratch neural-network stack: layers with
// hand-derived backward passes, softmax cross-entropy, and SGD with
// momentum. It exists because the FedCross reproduction needs a DNN
// training substrate and Go has no stdlib one; every layer is
// gradient-checked against central differences in the tests.
//
// Conventions:
//   - Activations are rank-2 tensors (batch × features). Convolutional
//     layers are told their spatial geometry at construction and reshape
//     internally, so the rest of the stack never juggles ranks.
//   - Layers cache whatever the backward pass needs during Forward, so a
//     layer instance must not be shared between concurrent training runs.
//   - Backward receives dLoss/dOutput and returns dLoss/dInput, and
//     accumulates parameter gradients internally (read via Grads).
//     Sequential.BackwardParams is the same pass for callers that drop
//     dLoss/dInput: the first layer skips computing it.
package nn

import (
	"fmt"

	"fedcross/internal/tensor"
)

// Layer is one differentiable stage of a network.
type Layer interface {
	// Forward computes the layer output for a (batch × features) input.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward consumes dLoss/dOutput and returns dLoss/dInput,
	// accumulating parameter gradients as a side effect.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameter tensors (may be empty).
	Params() []*tensor.Tensor
	// Grads returns gradient tensors aligned with Params.
	Grads() []*tensor.Tensor
}

// Sequential chains layers. It implements Layer itself, so blocks nest.
// The layer list must not be mutated after the first Params/Grads call:
// both views are cached so per-step bookkeeping (ZeroGrads, SGD steps)
// does not rebuild them.
type Sequential struct {
	Layers []Layer

	params, grads []*tensor.Tensor // cached flat views
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Forward applies every layer in order.
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward propagates the gradient through the layers in reverse order.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// paramsBackwarder is the optional half of a layer's backward pass:
// accumulate the parameter gradients exactly as Backward does, but do not
// form dLoss/dInput. Layers whose input gradient is real extra work
// (Conv2D, Linear) implement it, and Sequential so a nested first block
// passes the request down.
type paramsBackwarder interface {
	BackwardParams(grad *tensor.Tensor)
}

// BackwardParams is Backward for callers that do not read dLoss/dInput —
// a training step, whose network input is the data batch. Every layer but
// the first runs Backward as usual (the layer below consumes its result);
// the first is asked for its parameter gradients only, when it knows how,
// and falls through to Backward otherwise. Parameter gradients run the
// same accumulation chains either way, so Grads() hold the same bits
// after BackwardParams as after Backward.
func (s *Sequential) BackwardParams(grad *tensor.Tensor) {
	for i := len(s.Layers) - 1; i > 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	if len(s.Layers) == 0 {
		return
	}
	if first, ok := s.Layers[0].(paramsBackwarder); ok {
		first.BackwardParams(grad)
		return
	}
	s.Layers[0].Backward(grad)
}

// Params returns the concatenation of all layer parameters, in layer
// order. The slice is cached; callers must not append to it.
func (s *Sequential) Params() []*tensor.Tensor {
	if s.params == nil {
		for _, l := range s.Layers {
			s.params = append(s.params, l.Params()...)
		}
	}
	return s.params
}

// Grads returns the concatenation of all layer gradients, aligned with
// Params. The slice is cached; callers must not append to it.
func (s *Sequential) Grads() []*tensor.Tensor {
	if s.grads == nil {
		for _, l := range s.Layers {
			s.grads = append(s.grads, l.Grads()...)
		}
	}
	return s.grads
}

// ZeroGrads clears every gradient tensor of the network.
func (s *Sequential) ZeroGrads() {
	for _, g := range s.Grads() {
		g.Zero()
	}
}

// NumParams returns the total number of scalar parameters.
func (s *Sequential) NumParams() int {
	n := 0
	for _, p := range s.Params() {
		n += p.Len()
	}
	return n
}

func checkBatch(name string, x *tensor.Tensor, features int) {
	if x.Rank() != 2 {
		panic(fmt.Sprintf("nn: %s expects rank-2 input, got shape %v", name, x.Shape))
	}
	if features > 0 && x.Shape[1] != features {
		panic(fmt.Sprintf("nn: %s expects %d input features, got %d", name, features, x.Shape[1]))
	}
}

// checkGradBatch panics unless the gradient handed to a layer's Backward
// has as many rows as the batch its Forward cached.
func checkGradBatch(layer string, grad *tensor.Tensor, batch int) {
	if grad.Shape[0] != batch {
		panic(fmt.Sprintf("nn: %s.Backward: gradient batch %d, forward batch %d", layer, grad.Shape[0], batch))
	}
}
