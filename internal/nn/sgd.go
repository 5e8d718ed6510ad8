package nn

import (
	"fmt"

	"fedcross/internal/tensor"
)

// SGD implements stochastic gradient descent with classical momentum and
// optional weight decay — the optimizer used throughout the paper
// (lr = 0.01, momentum = 0.5).
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity []*tensor.Tensor
}

// NewSGD constructs an optimizer with the given learning rate and momentum.
func NewSGD(lr, momentum float64) *SGD {
	if lr <= 0 {
		panic(fmt.Sprintf("nn: SGD learning rate must be positive, got %v", lr))
	}
	return &SGD{LR: lr, Momentum: momentum}
}

// Step applies one update to params given grads, both as returned by a
// network's Params/Grads. Velocity buffers are allocated lazily on first
// use and keyed by position, so an SGD instance is tied to one network.
// Every length is checked before the first parameter moves: a mismatched
// gradient or velocity panics with the network untouched. Without weight
// decay each parameter takes tensor.MomentumStep: decayStep's loop with a
// zero decay, on the platform's vector kernel, bit for bit.
func (s *SGD) Step(params, grads []*tensor.Tensor) {
	if len(params) != len(grads) {
		panic(fmt.Sprintf("nn: SGD.Step: %d params vs %d grads", len(params), len(grads)))
	}
	if s.velocity == nil {
		s.velocity = make([]*tensor.Tensor, len(params))
		for i, p := range params {
			s.velocity[i] = tensor.Zeros(p.Shape...)
		}
	}
	if len(s.velocity) != len(params) {
		panic(fmt.Sprintf("nn: SGD.Step: %d params vs %d velocity buffers", len(params), len(s.velocity)))
	}
	for i, p := range params {
		if n, g, v := len(p.Data), len(grads[i].Data), len(s.velocity[i].Data); g != n || v != n {
			panic(fmt.Sprintf("nn: SGD.Step: param %d has %d elements, grad %d / velocity %d", i, n, g, v))
		}
	}
	for i, p := range params {
		if s.WeightDecay == 0 {
			tensor.MomentumStep(p.Data, s.velocity[i].Data, grads[i].Data, s.LR, s.Momentum)
		} else {
			s.decayStep(p.Data, s.velocity[i].Data, grads[i].Data)
		}
	}
}

// decayStep is Step's scalar path for a non-zero weight decay, which adds
// WeightDecay·p to the gradient first.
func (s *SGD) decayStep(p, v, g []float64) {
	for j := range p {
		gj := g[j] + s.WeightDecay*p[j]
		v[j] = s.Momentum*v[j] + gj
		p[j] -= s.LR * v[j]
	}
}

// Reset clears the momentum buffers, e.g. when a fresh model is loaded
// into the same training loop.
func (s *SGD) Reset() { s.velocity = nil }

// ZeroVelocity zeroes the momentum buffers in place, keeping their
// storage. It is the replica-reuse reset: after it, the optimizer is
// indistinguishable from a freshly constructed one (whose velocity starts
// at zero) without Reset's reallocation on the next Step.
func (s *SGD) ZeroVelocity() {
	for _, v := range s.velocity {
		v.Zero()
	}
}
