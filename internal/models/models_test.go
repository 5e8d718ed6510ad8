package models

import (
	"math"
	"testing"

	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

func TestVisionModelShapes(t *testing.T) {
	// Parameter-vector lengths are wire and checkpoint format: folding a
	// ReLU into the pool behind it (neither owns a parameter) must leave
	// them where they were.
	params := map[string]int{"cnn-10": 3802, "resnet-mini-10": 5698, "vgg-mini-10": 25562}
	for _, f := range []Factory{CNN(10), ResNetMini(10), VGGMini(10)} {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			rng := tensor.NewRNG(1)
			net := f.New(rng)
			if n := len(nn.FlattenParams(net.Params())); n != params[f.Name] {
				t.Fatalf("%d parameters, want %d", n, params[f.Name])
			}
			x := rng.Randn(1, 4, VisionFeatures)
			y := net.Forward(x)
			if y.Shape[0] != 4 || y.Shape[1] != 10 {
				t.Fatalf("output shape %v, want [4 10]", y.Shape)
			}
			if !tensor.AllFinite(y.Data) {
				t.Fatal("forward produced a non-finite output")
			}
		})
	}
}

func TestVGGIsLargest(t *testing.T) {
	rng := tensor.NewRNG(2)
	cnn := CNN(10).New(rng).NumParams()
	res := ResNetMini(10).New(rng).NumParams()
	vgg := VGGMini(10).New(rng).NumParams()
	if vgg <= cnn || vgg <= res {
		t.Fatalf("VGGMini must be largest: cnn=%d resnet=%d vgg=%d", cnn, res, vgg)
	}
}

func TestFactoriesDeterministic(t *testing.T) {
	for _, f := range []Factory{CNN(10), ResNetMini(10), VGGMini(10), MLP(8, 4, 3)} {
		a := nn.FlattenParams(f.New(tensor.NewRNG(42)).Params())
		b := nn.FlattenParams(f.New(tensor.NewRNG(42)).Params())
		if len(a) != len(b) {
			t.Fatalf("%s: param counts differ", f.Name)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: same seed must give same weights", f.Name)
			}
		}
	}
}

func TestParamVectorRoundTripThroughFreshInstance(t *testing.T) {
	// The FL pattern: flatten a trained model, rebuild the architecture
	// fresh, load the vector, get identical outputs.
	f := ResNetMini(10)
	rng := tensor.NewRNG(3)
	m1 := f.New(rng)
	vec := nn.FlattenParams(m1.Params())
	m2 := f.New(tensor.NewRNG(999)) // different init
	if err := nn.LoadParams(m2.Params(), vec); err != nil {
		t.Fatal(err)
	}
	x := tensor.NewRNG(4).Randn(1, 2, VisionFeatures)
	y1 := m1.Forward(x)
	y2 := m2.Forward(x)
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatal("loaded model output differs from source")
		}
	}
}

func TestTextModels(t *testing.T) {
	rng := tensor.NewRNG(5)
	char := CharLSTM(20, 6, 4, 8).New(rng)
	x := tensor.New([]float64{1, 2, 3, 4, 5, 6, 0, 19, 7, 3, 2, 1}, 2, 6)
	y := char.Forward(x)
	if y.Shape[1] != 20 {
		t.Fatalf("char-lstm output %v, want vocab 20", y.Shape)
	}
	sent := SentLSTM(30, 5, 4, 8).New(rng)
	xs := tensor.New([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 2, 5)
	ys := sent.Forward(xs)
	if ys.Shape[1] != 2 {
		t.Fatalf("sent-lstm output %v, want 2 classes", ys.Shape)
	}
}

func TestRegistryAndNames(t *testing.T) {
	reg := Registry(10)
	for _, name := range Names() {
		f, ok := reg[name]
		if !ok {
			t.Fatalf("Names lists %q but Registry lacks it", name)
		}
		if f.New == nil {
			t.Fatalf("factory %q has nil constructor", name)
		}
	}
	if len(Names()) < 4 {
		t.Fatalf("expected at least 4 registered models, got %d", len(Names()))
	}
}

func TestVisionModelsTrainable(t *testing.T) {
	// One SGD step must change parameters and not blow up.
	for _, f := range []Factory{CNN(10), ResNetMini(10)} {
		rng := tensor.NewRNG(6)
		net := f.New(rng)
		before := nn.FlattenParams(net.Params()).Clone()
		x := rng.Randn(1, 8, VisionFeatures)
		labels := make([]int, 8)
		for i := range labels {
			labels[i] = i % 10
		}
		opt := nn.NewSGD(0.01, 0.5)
		net.ZeroGrads()
		logits := net.Forward(x)
		_, grad := nn.SoftmaxCrossEntropy(logits, labels)
		net.Backward(grad)
		opt.Step(net.Params(), net.Grads())
		after := nn.FlattenParams(net.Params())
		if before.DistanceSq(after) == 0 {
			t.Fatalf("%s: SGD step did not move parameters", f.Name)
		}
		for _, v := range after {
			if v != v { // NaN check
				t.Fatalf("%s: NaN after SGD step", f.Name)
			}
		}
	}
}

// TestBackwardParamsMatchesBackward: a training step that drops
// dLoss/dInput (Sequential.BackwardParams) must leave every gradient
// tensor with the bits Backward leaves — for each stock architecture, for
// a network whose first layer is itself a Sequential (the request is
// passed down) and for first layers without the optional method (ReLU,
// and the text models' Embedding: they fall through to Backward).
func TestBackwardParamsMatchesBackward(t *testing.T) {
	vision := func(rng *tensor.RNG) *tensor.Tensor { return rng.Randn(1, 5, VisionFeatures) }
	tokens := func(rng *tensor.RNG) *tensor.Tensor {
		x := tensor.Zeros(5, 6)
		for i := range x.Data {
			x.Data[i] = float64(rng.Intn(20))
		}
		return x
	}
	nested := Factory{Name: "nested-first-block", New: func(rng *tensor.RNG) *nn.Sequential {
		return nn.NewSequential(
			nn.NewSequential(nn.NewConv2D(VisionC, VisionH, VisionW, 4, rng), nn.NewReLU()),
			nn.NewLinear(4*VisionH*VisionW, 3, rng),
		)
	}}
	plainFirst := Factory{Name: "relu-first", New: func(rng *tensor.RNG) *nn.Sequential {
		return nn.NewSequential(nn.NewReLU(), nn.NewLinear(VisionFeatures, 3, rng))
	}}
	for _, tc := range []struct {
		f     Factory
		input func(*tensor.RNG) *tensor.Tensor
	}{
		{CNN(10), vision}, {ResNetMini(10), vision}, {VGGMini(10), vision},
		{MLP(VisionFeatures, 32, 10), vision},
		{CharLSTM(20, 6, 4, 8), tokens}, {SentLSTM(20, 6, 4, 8), tokens},
		{nested, vision}, {plainFirst, vision},
	} {
		x := tc.input(tensor.NewRNG(7))
		labels := []int{0, 1, 1, 0, 1} // SentLSTM has two classes
		grads := func(params bool) []*tensor.Tensor {
			net := tc.f.New(tensor.NewRNG(8))
			net.ZeroGrads()
			logits := net.Forward(x)
			_, dlogits := nn.SoftmaxCrossEntropy(logits, labels)
			if params {
				net.BackwardParams(dlogits)
			} else {
				net.Backward(dlogits)
			}
			return net.Grads()
		}
		want, got := grads(false), grads(true)
		if len(got) != len(want) {
			t.Fatalf("%s: %d gradient tensors vs %d", tc.f.Name, len(got), len(want))
		}
		nonzero := false
		for i := range want {
			for j, w := range want[i].Data {
				if math.Float64bits(got[i].Data[j]) != math.Float64bits(w) {
					t.Fatalf("%s: gradient %d element %d: BackwardParams %v, Backward %v", tc.f.Name, i, j, got[i].Data[j], w)
				}
				nonzero = nonzero || w != 0
			}
		}
		if !nonzero {
			t.Fatalf("%s: every gradient is zero; the comparison is vacuous", tc.f.Name)
		}
	}
}

// TestConvLayersTakeWinograd: every convolution the product builds runs,
// on amd64 with AVX2 (not purego), the Winograd assembly rather than the
// Go twins — a model whose channel counts slipped off the vector path
// would train at the twins' speed and pass every other test. The zoo's convolutions cover input and output channel
// counts 3, 8, 12, 16 and 32.
func TestConvLayersTakeWinograd(t *testing.T) {
	vectorBuild := tensor.CurrentBackend().Name() == "avx2"
	channels := map[int]bool{}
	var walk func(name string, l nn.Layer)
	walk = func(name string, l nn.Layer) {
		switch l := l.(type) {
		case *nn.Sequential:
			for _, sub := range l.Layers {
				walk(name, sub)
			}
		case *nn.Residual:
			walk(name, l.Body)
		case *nn.Conv2D:
			channels[l.Geom.InC], channels[l.OutC] = true, true
			if vectorBuild && !l.Vector() {
				t.Errorf("%s: conv %+v → %d channels runs the Winograd Go twins", name, l.Geom, l.OutC)
			}
		}
	}
	for _, f := range []Factory{CNN(10), VGGMini(10), ResNetMini(10)} {
		walk(f.Name, f.New(tensor.NewRNG(1)))
	}
	for _, c := range []int{3, 8, 12, 16, 32} {
		if !channels[c] {
			t.Errorf("no convolution has %d channels", c)
		}
	}
}
