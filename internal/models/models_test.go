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
	size := func(f Factory) int { return len(nn.FlattenParams(f.New(rng).Params())) }
	cnn, res, vgg := size(CNN(10)), size(ResNetMini(10)), size(VGGMini(10))
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
	// CNN's first layer is a fused convolution on the AVX2 kernels where
	// the build has them; this one's four channels run the Go twins.
	nestedFused := Factory{Name: "nested-fused-first-block", New: func(rng *tensor.RNG) *nn.Sequential {
		return nn.NewSequential(
			nn.NewSequential(nn.NewConv2DReLUPool(VisionC, VisionH, VisionW, 4, rng)),
			nn.NewLinear(4*VisionH/2*VisionW/2, 3, rng),
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
		{nested, vision}, {nestedFused, vision}, {plainFirst, vision},
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
// would train at the twins' speed and pass every other test. The zoo's
// convolutions cover input and output channel counts 3, 8, 12, 16 and 32,
// and four of them (the CNN's two, VGGMini's two pooled ones) fold their
// ReLU and pool in, including the CNN's only 8-channel output.
func TestConvLayersTakeWinograd(t *testing.T) {
	vectorBuild := tensor.CurrentBackend().Name() == "avx2"
	channels, fused := map[int]bool{}, 0
	walkZoo(func(name string, _, l nn.Layer) {
		c, ok := l.(*nn.Conv2D)
		if !ok {
			return
		}
		channels[c.Geom.InC], channels[c.OutC] = true, true
		if c.OutFeatures() != c.OutC*c.Geom.InH*c.Geom.InW {
			fused++
		}
		if vectorBuild && !c.Vector() {
			t.Errorf("%s: conv %+v → %d channels runs the Winograd Go twins", name, c.Geom, c.OutC)
		}
	})
	for _, c := range []int{3, 8, 12, 16, 32} {
		if !channels[c] {
			t.Errorf("no convolution has %d channels", c)
		}
	}
	if fused != 4 {
		t.Errorf("%d convolutions fold a ReLU and a pool in, want 4", fused)
	}
}

// TestZooFoldsConvPools: no zoo model builds a convolution directly
// followed by a ReLU max pool, which nn.NewConv2DReLUPool runs as one
// layer (inside the Winograd output transform) for the same bits. A pool
// rectifies when an all-negative batch pools to zeros; the one standalone
// one left is ResNetMini's, after a residual block.
func TestZooFoldsConvPools(t *testing.T) {
	walkZoo(func(name string, prev, l nn.Layer) {
		p, ok := l.(*nn.MaxPool2D)
		if _, conv := prev.(*nn.Conv2D); !ok || !conv {
			return
		}
		x := tensor.Zeros(1, p.InFeatures())
		for i := range x.Data {
			x.Data[i] = -1
		}
		if p.Forward(x).Data[0] == 0 {
			t.Errorf("%s: a Conv2D then a ReLU max pool over %dx%dx%d; build them as nn.NewConv2DReLUPool", name, p.C, p.H, p.W)
		}
	})
}

// walkZoo visits every layer of the vision models, nested ones included,
// with the layer before it in its Sequential (nil for a first layer).
func walkZoo(visit func(name string, prev, l nn.Layer)) {
	var walk func(name string, prev, l nn.Layer)
	walk = func(name string, prev, l nn.Layer) {
		visit(name, prev, l)
		switch l := l.(type) {
		case *nn.Sequential:
			for i, sub := range l.Layers {
				var before nn.Layer
				if i > 0 {
					before = l.Layers[i-1]
				}
				walk(name, before, sub)
			}
		case *nn.Residual:
			walk(name, nil, l.Body)
		}
	}
	for _, f := range []Factory{CNN(10), VGGMini(10), ResNetMini(10)} {
		walk(f.Name, nil, f.New(tensor.NewRNG(1)))
	}
}
