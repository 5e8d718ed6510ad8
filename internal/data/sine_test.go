package data

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"fedcross/internal/tensor"
)

// TestVisionSineMatchesMathSin holds tensor.VisionSin to math.Sin bit for bit:
// the special cases it hands over, the edges of its own range, the
// octant boundaries, random doubles across every exponent and the
// arguments GenerateVision's finish pass gives it. CI runs it under
// GOAMD64=v3 too, where both functions compile to fused forms.
func TestVisionSineMatchesMathSin(t *testing.T) {
	fails := 0
	check := func(x float64) {
		got, want := tensor.VisionSin(x), math.Sin(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			if fails++; fails <= 10 {
				t.Errorf("VisionSin(%v = %#016x) = %#016x, math.Sin = %#016x", x, math.Float64bits(x), math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	ulps := func(x float64, n int) {
		b := math.Float64bits(x)
		for d := -n; d <= n; d++ {
			check(math.Float64frombits(b + uint64(d)))
		}
	}

	for _, b := range []uint64{
		0, 1 << 63, // ±0
		1, 2, 0x000fffffffffffff, 0x0008000000000000, 1<<63 | 1, 1<<63 | 0x000fffffffffffff, // subnormals
		0x0010000000000000, 1<<63 | 0x0010000000000000, // smallest normals
		0x7ff8000000000000, 0xfff8000000000000, 0x7ff0000000000001, 0x7ff4000000000abc, 0xfffc000000000000, // NaNs
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x7fefffffffffffff, 0xffefffffffffffff, // ±MaxFloat64
	} {
		check(math.Float64frombits(b))
	}
	for _, x := range []float64{1 << 29, -(1 << 29)} {
		ulps(x, 3)
	}
	for k := -82; k <= 82; k++ { // every multiple of π/4 within ±64
		ulps(float64(k)*(math.Pi/4), 3)
	}

	// Random doubles: half over every bit pattern (every exponent, most
	// of them at or past 2^29), half with the exponent uniform over
	// [2^-60, 2^29), the range VisionSin reduces itself.
	rng := tensor.NewRNG(1)
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	for i := range n {
		b := uint64(rng.Int63())<<1 | uint64(rng.Int63())&1
		if i&1 == 1 {
			e := uint64(1023 - 60 + rng.Intn(89))
			b = b&(1<<63|1<<52-1) | e<<52
		}
		check(math.Float64frombits(b))
	}

	// The corpus's own arguments, 2v + phase, at the benchmark's and the
	// experiments' vision configs.
	for _, cfg := range []VisionConfig{{
		Classes: 10, Features: 192, TrainPerClass: 100, TestPerClass: 25,
		ModesPerClass: 3, Sep: 1.0, Noise: 0.55, Seed: 3,
	}, {
		Classes: 100, Features: 192, TrainPerClass: 12, TestPerClass: 4,
		ModesPerClass: 2, Sep: 1.0, Noise: 0.55, Seed: 4,
	}, {
		Classes: 10, Features: 192, TrainPerClass: 200, TestPerClass: 20,
		ModesPerClass: 4, Sep: 1.0, Noise: 0.6, Seed: 5,
	}} {
		train, test, phase := serialDraw(cfg)
		for _, d := range []*Dataset{train, test} {
			for r := range d.Len() {
				for i, v := range d.X.Data[r*len(phase) : (r+1)*len(phase)] {
					check(2*v + phase[i])
				}
			}
		}
	}
	if fails > 10 {
		t.Errorf("… %d mismatches in all", fails)
	}
}

// TestGenerateVisionSplitInvariant holds GenerateVision's bytes equal at
// GOMAXPROCS 1, 2 and 3, and equal to the serial one-pass build it
// replaced (serialVision): the train rows and then the test rows.
func TestGenerateVisionSplitInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, cfg := range []VisionConfig{smallVisionCfg(7), {
		Classes: 10, Features: 192, TrainPerClass: 100, TestPerClass: 25,
		ModesPerClass: 3, Sep: 1.0, Noise: 0.55, Seed: 2,
	}, {
		Classes: 3, Features: 5, TrainPerClass: 1, TestPerClass: 0,
		ModesPerClass: 1, Sep: 1, Noise: 0.5, Seed: 9,
	}} {
		train, test := serialVision(cfg)
		want := append(slices.Clone(train.X.Data), test.X.Data...)
		for _, procs := range []int{1, 2, 3} {
			runtime.GOMAXPROCS(procs)
			train, test := GenerateVision(cfg)
			got := append(slices.Clone(train.X.Data), test.X.Data...)
			if !slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("%+v at GOMAXPROCS %d: GenerateVision differs from the one-pass build", cfg, procs)
			}
		}
	}
}
