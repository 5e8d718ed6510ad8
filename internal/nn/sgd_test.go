package nn

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"fedcross/internal/tensor"
)

// scalarMomentum is the loop SGD.Step ran before it had a kernel.
func scalarMomentum(p, v, g []float64, lr, m float64) {
	for j := range p {
		v[j] = m*v[j] + g[j]
		p[j] -= lr * v[j]
	}
}

// TestSGDStepMatchesScalar holds SGD.Step to the loop above, bit for bit,
// NaN payloads included, over three consecutive steps — so the second and
// third read a velocity the step wrote. (tensor's twin table holds
// tensor.MomentumStep, the kernel under the step, to its twin.)
func TestSGDStepMatchesScalar(t *testing.T) {
	rng := tensor.NewRNG(23)
	vec := func(n int) []float64 {
		x := rng.Uniform(-2, 2, n).Data
		plantBoundary(rng, x)
		return x
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 6506, 51978} {
		for _, m := range []float64{0, 0.9} {
			p, v := vec(n), vec(n)
			wantP, wantV := slices.Clone(p), slices.Clone(v)
			opt := &SGD{LR: 0.05, Momentum: m, velocity: []*tensor.Tensor{tensor.New(v, n)}}
			for s := range 3 {
				g := vec(n)
				scalarMomentum(wantP, wantV, g, 0.05, m)
				opt.Step([]*tensor.Tensor{tensor.New(p, n)}, []*tensor.Tensor{tensor.New(g, n)})
				what := fmt.Sprintf("n=%d m=%v step %d", n, m, s)
				sameBits(t, what+" params", p, wantP)
				sameBits(t, what+" velocity", v, wantV)
			}
		}
	}
}

// TestSGDStepRejectsMismatchBeforeWriting: a gradient or velocity whose
// length is not its parameter's panics with the parameter named, and no
// parameter — not even the ones before the bad one — has moved.
func TestSGDStepRejectsMismatchBeforeWriting(t *testing.T) {
	net := func() []*tensor.Tensor {
		return []*tensor.Tensor{tensor.Full(1, 4), tensor.Full(2, 3), tensor.Full(3, 5)}
	}
	grads := func(sizes ...int) []*tensor.Tensor {
		out := make([]*tensor.Tensor, len(sizes))
		for i, n := range sizes {
			out[i] = tensor.Full(0.5, n)
		}
		return out
	}
	cases := []struct {
		name  string
		prime func(opt *SGD) // a step on another network, sizing the velocity
		grads []*tensor.Tensor
		want  string
	}{
		{"grad short", nil, grads(4, 3, 4), "param 2 has 5 elements, grad 4 / velocity 5"},
		{"grad long", nil, grads(4, 4, 5), "param 1 has 3 elements, grad 4 / velocity 3"},
		{"velocity of another network", func(opt *SGD) {
			opt.Step([]*tensor.Tensor{tensor.Zeros(4), tensor.Zeros(3), tensor.Zeros(2)}, grads(4, 3, 2))
		}, grads(4, 3, 5), "param 2 has 5 elements, grad 5 / velocity 2"},
		{"velocity of a shorter network", func(opt *SGD) {
			opt.Step([]*tensor.Tensor{tensor.Zeros(4)}, grads(4))
		}, grads(4, 3, 5), "3 params vs 1 velocity buffers"},
	}
	for _, c := range cases {
		opt := NewSGD(0.1, 0.9)
		if c.prime != nil {
			c.prime(opt)
		}
		params := net()
		before := net()
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.want) {
					t.Fatalf("%s: panic %q, want it to say %q", c.name, msg, c.want)
				}
			}()
			opt.Step(params, c.grads)
		}()
		for i := range params {
			sameBits(t, fmt.Sprintf("%s: param %d after the panic", c.name, i), params[i].Data, before[i].Data)
		}
	}
}
