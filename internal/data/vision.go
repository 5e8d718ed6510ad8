package data

import (
	"fmt"
	"math"

	"fedcross/internal/tensor"
)

// VisionConfig parameterises the synthetic vision generator that stands in
// for CIFAR-10/100.
type VisionConfig struct {
	// Classes is the label-space size (10 for the CIFAR-10 substitute,
	// 100 for CIFAR-100).
	Classes int
	// Features is the flat sample width; vision models expect
	// models.VisionFeatures (3×8×8 = 192).
	Features int
	// TrainPerClass / TestPerClass are sample counts per class.
	TrainPerClass, TestPerClass int
	// ModesPerClass controls intra-class multi-modality; >1 makes the
	// task non-linearly separable so model capacity matters.
	ModesPerClass int
	// Sep scales class-mean separation; smaller is harder.
	Sep float64
	// Noise is the per-sample Gaussian noise level.
	Noise float64
	// Seed drives all randomness in the generator.
	Seed int64
}

// DefaultVision10 mirrors CIFAR-10's role: a 10-class task with headroom
// between weak and strong models.
func DefaultVision10(seed int64) VisionConfig {
	return VisionConfig{
		Classes: 10, Features: 192,
		TrainPerClass: 100, TestPerClass: 25,
		ModesPerClass: 3, Sep: 1.0, Noise: 0.55, Seed: seed,
	}
}

// DefaultVision100 mirrors CIFAR-100: ten times the classes, fewer samples
// per class, lower attainable accuracy.
func DefaultVision100(seed int64) VisionConfig {
	return VisionConfig{
		Classes: 100, Features: 192,
		TrainPerClass: 12, TestPerClass: 4,
		ModesPerClass: 2, Sep: 1.0, Noise: 0.55, Seed: seed,
	}
}

// GenerateVision builds train and test sets from cfg. Each class is a
// mixture of ModesPerClass Gaussian modes placed around a class mean, and
// every sample passes through a shared fixed non-linear distortion, so the
// Bayes-optimal boundary is not linear.
func GenerateVision(cfg VisionConfig) (train, test *Dataset) {
	checkVision(cfg)
	rng := tensor.NewRNG(cfg.Seed)

	// Frozen class structure: class mean + per-mode offsets.
	means := make([][]float64, cfg.Classes)
	modeOff := make([][][]float64, cfg.Classes)
	for c := range means {
		means[c] = randVec(rng, cfg.Features, cfg.Sep)
		modeOff[c] = make([][]float64, cfg.ModesPerClass)
		for m := range modeOff[c] {
			modeOff[c][m] = randVec(rng, cfg.Features, cfg.Sep*0.8)
		}
	}
	// Shared distortion: x -> x + 0.4·sin(2·shift + x rolled), applied
	// elementwise with a frozen per-feature phase. Cheap, smooth,
	// non-linear.
	phase := randVec(rng, cfg.Features, math.Pi)

	sample := func(rng *tensor.RNG, c int, dst []float64) {
		m := rng.Intn(cfg.ModesPerClass)
		for i := range dst {
			v := means[c][i] + modeOff[c][m][i] + rng.Normal(0, cfg.Noise)
			dst[i] = v + 0.4*math.Sin(2*v+phase[i])
		}
	}

	build := func(rng *tensor.RNG, perClass int) *Dataset {
		y := classMajorLabels(cfg.Classes, perClass)
		x := tensor.Zeros(len(y), cfg.Features)
		for row, c := range y {
			sample(rng, c, x.Data[row*cfg.Features:(row+1)*cfg.Features])
		}
		return &Dataset{X: x, Y: y, Classes: cfg.Classes}
	}

	trainRNG := rng.Split()
	testRNG := rng.Split()
	return build(trainRNG, cfg.TrainPerClass), build(testRNG, cfg.TestPerClass)
}

func checkVision(cfg VisionConfig) {
	if cfg.Classes <= 1 || cfg.Features <= 0 {
		panic(fmt.Sprintf("data: invalid vision config %+v", cfg))
	}
}

// classMajorLabels is the label column GenerateVision writes before it
// draws a feature: perClass rows of class 0, then perClass of class 1,
// and so on, so row r is labelled r / perClass.
func classMajorLabels(classes, perClass int) []int {
	y := make([]int, classes*perClass)
	for r := range y {
		y[r] = r / perClass
	}
	return y
}

func randVec(rng *tensor.RNG, n int, scale float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Normal(0, scale)
	}
	return v
}
