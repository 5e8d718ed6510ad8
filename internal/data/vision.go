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

// GenerateVision builds train and test sets from cfg. Each class is a
// mixture of ModesPerClass Gaussian modes placed around a class mean, and
// every sample passes through a shared fixed non-linear distortion, so the
// Bayes-optimal boundary is not linear.
//
// The train set's draws run on one core and everything else beside them
// on another (drawVision).
func GenerateVision(cfg VisionConfig) (train, test *Dataset) {
	return drawVision(cfg, nil)
}

// visionBlock is how many train rows drawVision's producer hands its
// consumer at a time.
const visionBlock = 32

// drawVision is the corpus's pipeline. cfg.Seed's stream draws the class
// structure and the distortion's phase, then splits off a train and a
// test stream. The train stream's order forces one side, the producer,
// to make each train row's draws in turn: its mode's Intn word, then its
// features' noise. The consumer does everything else beside it: slots,
// when not nil; the test set, from its own stream; and, visionBlock train
// rows at a time, v = (mean + offset) + noise and the distortion
// x = v + 0.4·sin(2v + phase) (tensor.VisionFinish), written to the row's
// destination. An element depends on its own draws and its column alone,
// so the bytes do not depend on how the two sides interleave.
//
// With slots nil every train row is drawn and finished in place and the
// train set is returned. Otherwise slots(labels) says where the train
// rows go, row r to row to[r] of x, and train is nil: until the consumer
// has that layout the producer draws into blocks of its own, then
// straight into x. The producer's channel holds every block, so the
// producer never waits, and the consumer sleeps while it has none. A
// panic on either side is raised again on the caller after the join
// (sideBySide); the producer closes its channel however it returns.
func drawVision(cfg VisionConfig, slots func(labels []int) (x []float64, to []int)) (train, test *Dataset) {
	checkVision(cfg)
	rng := tensor.NewRNG(cfg.Seed)
	f, modes := cfg.Features, cfg.ModesPerClass

	// Frozen class structure: each (class, mode)'s center, its class mean
	// plus its mode offset, summed once as each sample summed them first.
	centers := make([][]float64, 0, cfg.Classes*modes)
	for range cfg.Classes {
		mean := randVec(rng, f, cfg.Sep)
		for range modes {
			off := randVec(rng, f, cfg.Sep*0.8)
			for i := range off {
				off[i] = mean[i] + off[i]
			}
			centers = append(centers, off)
		}
	}
	// Shared distortion: x -> x + 0.4·sin(2x + phase), applied
	// elementwise with a frozen per-feature phase. Cheap, smooth,
	// non-linear.
	phase := randVec(rng, f, math.Pi)
	trainRNG, testRNG := rng.Split(), rng.Split()
	finish := func(dst, v []float64, c, m int) {
		center := centers[c*modes+m]
		for i := range v {
			v[i] = center[i] + v[i]
		}
		tensor.VisionFinish(dst, v, phase)
	}

	labels := classMajorLabels(cfg.Classes, cfg.TrainPerClass)
	rows := len(labels)
	var x []float64
	var to []int
	if slots == nil {
		train = &Dataset{X: tensor.Zeros(rows, f), Y: labels, Classes: cfg.Classes}
		x = train.X.Data
	}
	row := func(r int) []float64 {
		if to != nil {
			r = to[r]
		}
		return x[r*f : (r+1)*f]
	}
	type block struct {
		lo    int
		spill []float64 // the rows' noise, until x is laid out; nil after
	}
	noise := func(b block, r int) []float64 {
		if b.spill == nil {
			return row(r)
		}
		return b.spill[(r-b.lo)*f : (r-b.lo+1)*f]
	}
	modeOf := make([]int, rows)
	full := make(chan block, (rows+visionBlock-1)/visionBlock)
	laid := make(chan struct{}, 1)
	sideBySide(
		func() { // the producer
			defer close(full)
			placed := slots == nil
			for lo := 0; lo < rows; lo += visionBlock {
				if !placed {
					select {
					case <-laid:
						placed = true
					default:
					}
				}
				b, hi := block{lo: lo}, min(lo+visionBlock, rows)
				if !placed {
					b.spill = make([]float64, (hi-lo)*f)
				}
				for r := lo; r < hi; r++ {
					modeOf[r] = trainRNG.Intn(modes)
					trainRNG.NormalInto(noise(b, r), 0, cfg.Noise)
				}
				full <- b
			}
		},
		func() { // the consumer
			if slots != nil {
				x, to = slots(labels)
				laid <- struct{}{}
			}
			y := classMajorLabels(cfg.Classes, cfg.TestPerClass)
			test = &Dataset{X: tensor.Zeros(len(y), f), Y: y, Classes: cfg.Classes}
			for r, c := range y {
				v := test.X.Data[r*f : (r+1)*f]
				m := testRNG.Intn(modes)
				testRNG.NormalInto(v, 0, cfg.Noise)
				finish(v, v, c, m)
			}
			for b := range full {
				for r := b.lo; r < min(b.lo+visionBlock, rows); r++ {
					finish(row(r), noise(b, r), labels[r], modeOf[r])
				}
			}
		},
	)
	return train, test
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
	rng.NormalInto(v, 0, scale)
	return v
}
