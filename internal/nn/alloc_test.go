package nn

import (
	"testing"

	"fedcross/internal/tensor"
)

// Steady-state allocation contracts: after a warm-up pass sizes every
// reused buffer, a training step (forward + loss + backward + SGD) must
// not allocate. These tests enforce the zero-allocation property of the
// destination-passing kernels end to end, per layer stack.

func trainStepAllocs(t *testing.T, net *Sequential, x *tensor.Tensor, labels []int) float64 {
	t.Helper()
	opt := NewSGD(0.05, 0.5)
	params, grads := net.Params(), net.Grads()
	dlogits := tensor.Zeros(x.Shape[0], 1) // resized after the first forward
	step := func() {
		net.ZeroGrads()
		logits := net.Forward(x)
		dlogits = tensor.Ensure(dlogits, logits.Shape...)
		SoftmaxCrossEntropyInto(dlogits, logits, labels)
		net.Backward(dlogits)
		opt.Step(params, grads)
	}
	// Warm up: size every Ensure'd buffer and the SGD velocity.
	for i := 0; i < 3; i++ {
		step()
	}
	return testing.AllocsPerRun(10, step)
}

func TestTrainStepZeroAllocMLP(t *testing.T) {
	rng := tensor.NewRNG(1)
	net := NewSequential(
		NewLinear(12, 16, rng),
		NewReLU(),
		NewLinear(16, 4, rng),
	)
	x := rng.Randn(1, 8, 12)
	labels := []int{0, 1, 2, 3, 0, 1, 2, 3}
	if allocs := trainStepAllocs(t, net, x, labels); allocs != 0 {
		t.Fatalf("MLP training step allocates %v objects/op, want 0", allocs)
	}
}

func TestTrainStepZeroAllocCNN(t *testing.T) {
	rng := tensor.NewRNG(2)
	g := tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv := NewConv2D(g, 4, rng)
	net := NewSequential(
		conv,
		NewReLU(),
		NewMaxPool2D(4, 8, 8, 2),
		NewLinear(4*4*4, 4, rng),
	)
	x := rng.Randn(1, 6, 64)
	labels := []int{0, 1, 2, 3, 0, 1}
	if allocs := trainStepAllocs(t, net, x, labels); allocs != 0 {
		t.Fatalf("CNN training step allocates %v objects/op, want 0", allocs)
	}
}

func TestTrainStepZeroAllocLSTM(t *testing.T) {
	rng := tensor.NewRNG(3)
	net := NewSequential(
		NewLSTM(5, 6, 8, rng),
		NewLinear(8, 3, rng),
	)
	x := rng.Randn(1, 4, 30)
	labels := []int{0, 1, 2, 0}
	if allocs := trainStepAllocs(t, net, x, labels); allocs != 0 {
		t.Fatalf("LSTM training step allocates %v objects/op, want 0", allocs)
	}
}
