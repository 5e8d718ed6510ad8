package lowering

import (
	"math"
	"testing"
	"testing/quick"

	"fedcross/internal/tensor"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// --- destination-passing kernels: a dirty dst gives a fresh one's result ---

func TestToKernelsMatchAllocatingForms(t *testing.T) {
	rng := tensor.NewRNG(41)
	a := rng.Randn(1, 3, 4)
	g := tensor.ConvGeom{InC: 1, InH: 3, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	cols := rng.Randn(1, 9, 12)
	for _, k := range []struct {
		name  string
		shape []int
		run   func(dst *tensor.Tensor) *tensor.Tensor
	}{
		{"Im2ColTo", cols.Shape, func(dst *tensor.Tensor) *tensor.Tensor { return Im2ColTo(dst, a, g) }},
		{"Col2ImTo", a.Shape, func(dst *tensor.Tensor) *tensor.Tensor { return Col2ImTo(dst, cols, g) }},
	} {
		want, got := k.run(tensor.Zeros(k.shape...)), k.run(rng.Randn(1, k.shape...))
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s mismatch at %d: %v vs %v", k.name, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestIm2ColToZeroAllocAndCorrect(t *testing.T) {
	rng := tensor.NewRNG(5)
	g := tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
	img := rng.Randn(1, 2, 6, 6)
	want := Im2ColTo(tensor.Zeros(18, 36), img, g)
	ws := rng.Randn(1, want.Shape...) // stale contents must not leak through padding gaps
	Im2ColTo(ws, img, g)
	for i := range want.Data {
		if ws.Data[i] != want.Data[i] {
			t.Fatalf("Im2ColTo mismatch at %d", i)
		}
	}
	grad := rng.Randn(1, want.Shape[0], want.Shape[1])
	wantIm := Col2ImTo(tensor.Zeros(2, 6, 6), grad, g)
	dimg := rng.Randn(1, 2, 6, 6)
	Col2ImTo(dimg, grad, g)
	for i := range wantIm.Data {
		if dimg.Data[i] != wantIm.Data[i] {
			t.Fatalf("Col2ImTo mismatch at %d", i)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { Im2ColTo(ws, img, g) }); allocs != 0 {
		t.Errorf("Im2ColTo allocates %v objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { Col2ImTo(dimg, grad, g) }); allocs != 0 {
		t.Errorf("Col2ImTo allocates %v objects/op, want 0", allocs)
	}
}

func TestIm2ColKnown(t *testing.T) {
	// 1 channel 3x3 image, 2x2 kernel, stride 1, no pad -> 4 patches.
	img := tensor.New([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	g := tensor.ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, Stride: 1, Pad: 0}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cols := Im2ColTo(tensor.Zeros(4, 4), img, g)
	// First row = top-left value of each patch: 1,2,4,5.
	want := []float64{1, 2, 4, 5}
	for i, w := range want {
		if cols.Data[i] != w {
			t.Fatalf("Im2Col row0[%d] = %v, want %v", i, cols.Data[i], w)
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	img := tensor.New([]float64{1, 2, 3, 4}, 1, 2, 2)
	g := tensor.ConvGeom{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	cols := Im2ColTo(tensor.Zeros(9, 4), img, g)
	// Output is 2x2; center kernel tap (kh=1,kw=1) row must reproduce image.
	row := 1*3 + 1
	for i := 0; i < 4; i++ {
		if cols.Data[row*4+i] != img.Data[i] {
			t.Fatalf("center tap mismatch at %d", i)
		}
	}
}

func TestCol2ImAdjoint(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> — the defining adjoint identity,
	// which is exactly what correct conv backprop requires.
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		g := tensor.ConvGeom{
			InC: 1 + rng.Intn(3), InH: 3 + rng.Intn(4), InW: 3 + rng.Intn(4),
			KH: 1 + rng.Intn(3), KW: 1 + rng.Intn(3), Stride: 1 + rng.Intn(2), Pad: rng.Intn(2),
		}
		if g.Validate() != nil {
			return true // skip degenerate geometry
		}
		x := rng.Randn(1, g.InC, g.InH, g.InW)
		y := rng.Randn(1, g.InC*g.KH*g.KW, g.OutH()*g.OutW())
		lhs, rhs := 0.0, 0.0
		for i, v := range Im2ColTo(tensor.Zeros(y.Shape...), x, g).Data {
			lhs += v * y.Data[i]
		}
		for i, v := range Col2ImTo(tensor.Zeros(x.Shape...), y, g).Data {
			rhs += x.Data[i] * v
		}
		return almostEqual(lhs, rhs, 1e-8*(1+math.Abs(lhs)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
