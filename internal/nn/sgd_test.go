package nn

import (
	"math"
	"strings"
	"testing"

	"fedcross/internal/tensor"
)

// sgdSpecials are the values the momentum kernel must carry exactly like
// the scalar loop: NaNs of two payloads (math.NaN's and the x86 default
// one 0·Inf makes), both infinities, both zeros, denormals and the ends
// of the range.
var sgdSpecials = []float64{
	math.NaN(), math.Float64frombits(0xFFF8000000000000), math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	1e-310, -1e-310, math.MaxFloat64, -math.MaxFloat64,
}

// sgdVector is an n-element vector of normals with specials scattered
// through it.
func sgdVector(rng *tensor.RNG, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Normal(0, 1)
		if rng.Float64() < 0.15 {
			x[i] = sgdSpecials[rng.Intn(len(sgdSpecials))]
		}
	}
	return x
}

// scalarMomentum is the loop SGD.Step ran before it had a kernel.
func scalarMomentum(p, v, g []float64, lr, m float64) {
	for j := range p {
		v[j] = m*v[j] + g[j]
		p[j] -= lr * v[j]
	}
}

// firstBitDiff returns the first index where a and b differ in any bit, NaN
// payloads included, or -1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestSGDStepMatchesScalar holds SGD.Step (the dispatched kernel: AVX2
// where the CPU has it), tensor.MomentumStep and its scalar twin to the
// loop above, bit for bit, over three consecutive steps — so the second
// and third read a velocity the kernel wrote.
func TestSGDStepMatchesScalar(t *testing.T) {
	rng := tensor.NewRNG(23)
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 6506, 51978}
	steps := map[string]func(p, v, g []float64, lr, m float64){
		"kernel": tensor.MomentumStep,
		"twin":   tensor.MomentumStepGo,
		"SGD.Step": func(p, v, g []float64, lr, m float64) {
			opt := &SGD{LR: lr, Momentum: m,
				velocity: []*tensor.Tensor{tensor.New(v, len(v))}}
			opt.Step([]*tensor.Tensor{tensor.New(p, len(p))}, []*tensor.Tensor{tensor.New(g, len(g))})
		},
	}
	for _, n := range lengths {
		for _, m := range []float64{0, 0.9} {
			p0, v0 := sgdVector(rng, n), sgdVector(rng, n)
			grads := [3][]float64{sgdVector(rng, n), sgdVector(rng, n), sgdVector(rng, n)}
			wantP, wantV := append([]float64(nil), p0...), append([]float64(nil), v0...)
			var want [3][]float64
			for s, g := range grads {
				scalarMomentum(wantP, wantV, g, 0.05, m)
				want[s] = append(append([]float64(nil), wantP...), wantV...)
			}
			for name, step := range steps {
				p, v := append([]float64(nil), p0...), append([]float64(nil), v0...)
				for s, g := range grads {
					step(p, v, g, 0.05, m)
					if i := firstBitDiff(append(append([]float64(nil), p...), v...), want[s]); i >= 0 {
						t.Fatalf("%s n=%d m=%v step %d: element %d of p‖v differs from the scalar loop", name, n, m, s, i)
					}
				}
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
			if j := firstBitDiff(params[i].Data, before[i].Data); j >= 0 {
				t.Fatalf("%s: param %d element %d moved before the panic", c.name, i, j)
			}
		}
	}
}
