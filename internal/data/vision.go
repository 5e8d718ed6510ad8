package data

import (
	"fmt"
	"math"
	"runtime"

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

// GenerateVision builds train and test sets from cfg. Each class is a
// mixture of ModesPerClass Gaussian modes placed around a class mean, and
// every sample passes through a shared fixed non-linear distortion, so the
// Bayes-optimal boundary is not linear.
//
// It runs in two passes: drawVision makes every draw, the train and
// test sets side by side, each in its own stream's order, and leaves
// each feature at its undistorted value; finish then applies the
// distortion in place over row blocks in parallel.
func GenerateVision(cfg VisionConfig) (train, test *Dataset) {
	train, test, phase := drawVision(cfg)
	finish(train.X.Data, train.X.Data, nil, phase)
	finish(test.X.Data, test.X.Data, nil, phase)
	return train, test
}

// drawVision is GenerateVision's draw pass: the class structure, the
// distortion's phase and every sample's features before the
// distortion, v = mean + mode offset + noise.
func drawVision(cfg VisionConfig) (train, test *Dataset, phase []float64) {
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
	// Shared distortion: x -> x + 0.4·sin(2x + phase), applied
	// elementwise with a frozen per-feature phase (finish). Cheap,
	// smooth, non-linear.
	phase = randVec(rng, cfg.Features, math.Pi)

	build := func(rng *tensor.RNG, perClass int) *Dataset {
		y := classMajorLabels(cfg.Classes, perClass)
		x := tensor.Zeros(len(y), cfg.Features)
		for row, c := range y {
			dst := x.Data[row*cfg.Features : (row+1)*cfg.Features]
			m := rng.Intn(cfg.ModesPerClass)
			for i := range dst {
				dst[i] = means[c][i] + modeOff[c][m][i] + rng.Normal(0, cfg.Noise)
			}
		}
		return &Dataset{X: x, Y: y, Classes: cfg.Classes}
	}

	// Both streams are split off before either build draws, so the two
	// builds run side by side.
	trainRNG := rng.Split()
	testRNG := rng.Split()
	sideBySide(
		func() { test = build(testRNG, cfg.TestPerClass) },
		func() { train = build(trainRNG, cfg.TrainPerClass) },
	)
	return train, test, phase
}

// finish is the corpus's finish pass, x = v + 0.4·sin(2v + phase)
// (tensor.VisionFinish), from src's rows of len(phase) features to dst:
// row r to row to[r], or to row r where to is nil (dst is then src, the
// finish in place). The rows are split into GOMAXPROCS blocks run side by
// side. An element depends on itself and its column's phase alone, so the
// bytes do not depend on the split or on where a row lands.
func finish(dst, src []float64, to []int, phase []float64) {
	f := len(phase)
	rows := len(src) / f
	blocks := max(1, min(runtime.GOMAXPROCS(0), rows))
	fns := make([]func(), blocks)
	for b := range fns {
		fns[b] = func() {
			for r := b * rows / blocks; r < (b+1)*rows/blocks; r++ {
				d := r
				if to != nil {
					d = to[r]
				}
				tensor.VisionFinish(dst[d*f:(d+1)*f], src[r*f:(r+1)*f], phase)
			}
		}
	}
	sideBySide(fns...)
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
