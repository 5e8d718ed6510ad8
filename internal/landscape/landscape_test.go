package landscape

import (
	"math"
	"testing"

	"fedcross/internal/data"
	"fedcross/internal/fl"
	"fedcross/internal/models"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

func landEnv(seed int64) (models.Factory, *data.Dataset) {
	cfg := data.VisionConfig{
		Classes: 3, Features: 8,
		TrainPerClass: 30, TestPerClass: 12,
		ModesPerClass: 1, Sep: 1.5, Noise: 0.3, Seed: seed,
	}
	_, test := data.GenerateVision(cfg)
	return models.MLP(8, 8, 3), test
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	bad := []Options{
		{Resolution: 2, Radius: 0.5},
		{Resolution: 8, Radius: 0.5}, // even
		{Resolution: 9, Radius: 0},
		{Resolution: 9, Radius: 0.5, MaxSamples: -1},
	}
	for i, o := range bad {
		if o.Validate() == nil {
			t.Fatalf("case %d should fail validation: %+v", i, o)
		}
	}
}

func TestScan2DCenterMatchesDirectEval(t *testing.T) {
	factory, test := landEnv(1)
	vec := nn.FlattenParams(factory.New(tensor.NewRNG(2)).Params())
	opts := Options{Resolution: 5, Radius: 0.3, Seed: 3}
	grid, err := Scan2D(factory, vec, test, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Loss) != 5 || len(grid.Loss[0]) != 5 {
		t.Fatalf("grid dims %dx%d", len(grid.Loss), len(grid.Loss[0]))
	}
	// Axes are symmetric about zero.
	if grid.Xs[2] != 0 || grid.Xs[0] != -0.3 || grid.Xs[4] != 0.3 {
		t.Fatalf("axes %v", grid.Xs)
	}
	// The centre is the unperturbed model: CenterLoss must match Evaluate.
	centre := grid.CenterLoss()
	probe := vec.Clone()
	net := factory.New(tensor.NewRNG(0))
	if err := nn.LoadParams(net.Params(), probe); err != nil {
		t.Fatal(err)
	}
	x, y := test.Batch(allIdx(test.Len()))
	logits := net.Forward(x)
	loss, _ := nn.SoftmaxCrossEntropy(logits, y)
	if diff := centre - loss; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("centre loss %v, direct eval %v", centre, loss)
	}
	if grid.MaxLoss() < centre {
		t.Fatal("max loss below centre loss")
	}
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func TestScanDeterministicInSeed(t *testing.T) {
	factory, test := landEnv(4)
	vec := nn.FlattenParams(factory.New(tensor.NewRNG(5)).Params())
	opts := Options{Resolution: 3, Radius: 0.2, Seed: 9}
	g1, err := Scan2D(factory, vec, test, opts)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Scan2D(factory, vec, test, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g1.Loss {
		for j := range g1.Loss[i] {
			if g1.Loss[i][j] != g2.Loss[i][j] {
				t.Fatal("scan must be deterministic given the seed")
			}
		}
	}
}

func TestMaxSamplesCapsEvaluation(t *testing.T) {
	factory, test := landEnv(6)
	vec := nn.FlattenParams(factory.New(tensor.NewRNG(7)).Params())
	opts := Options{Resolution: 3, Radius: 0.2, Seed: 1, MaxSamples: 8}
	if _, err := Scan2D(factory, vec, test, opts); err != nil {
		t.Fatal(err)
	}
}

func TestSharpnessDetectsCurvatureDifference(t *testing.T) {
	// A trained (near-minimum) model should be sharper at large radius
	// than at small radius — sanity that the metric responds to scale.
	factory, test := landEnv(8)
	rng := tensor.NewRNG(9)
	net := factory.New(rng)
	// Train briefly so we sit near a minimum.
	opt := nn.NewSGD(0.1, 0.5)
	for step := 0; step < 60; step++ {
		x, y := test.Batch(allIdx(test.Len()))
		net.ZeroGrads()
		logits := net.Forward(x)
		_, g := nn.SoftmaxCrossEntropy(logits, y)
		net.Backward(g)
		opt.Step(net.Params(), net.Grads())
	}
	vec := nn.FlattenParams(net.Params())
	small, err := Sharpness(factory, vec, test, 0.05, 4, 11, fl.Workers{})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Sharpness(factory, vec, test, 0.5, 4, 11, fl.Workers{})
	if err != nil {
		t.Fatal(err)
	}
	if large <= small {
		t.Fatalf("sharpness at radius 0.5 (%v) should exceed radius 0.05 (%v)", large, small)
	}
	if small < -0.05 {
		t.Fatalf("near a minimum sharpness should be ~non-negative, got %v", small)
	}
}

func TestSharpnessValidation(t *testing.T) {
	factory, test := landEnv(10)
	vec := nn.FlattenParams(factory.New(tensor.NewRNG(1)).Params())
	if _, err := Sharpness(factory, vec, test, 0, 2, 1, fl.Workers{}); err == nil {
		t.Fatal("radius 0 must error")
	}
	if _, err := Sharpness(factory, vec, test, math.NaN(), 2, 1, fl.Workers{}); err == nil {
		t.Fatal("radius NaN must error")
	}
	if _, err := Sharpness(factory, vec, test, 0.1, 0, 1, fl.Workers{}); err == nil {
		t.Fatal("nDirs 0 must error")
	}
}
