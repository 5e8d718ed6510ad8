package tensor

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestNewAndShape(t *testing.T) {
	tt := New([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if tt.Rank() != 2 || tt.Shape[0] != 2 || tt.Shape[1] != 3 {
		t.Fatalf("unexpected shape %v", tt.Shape)
	}
	if tt.Len() != 6 {
		t.Fatalf("Len = %d, want 6", tt.Len())
	}
}

func TestNewPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with wrong data length should panic")
		}
	}()
	New([]float64{1, 2, 3}, 2, 2)
}

func TestElementwiseOps(t *testing.T) {
	a := New([]float64{1, 2, 3}, 3)
	b := New([]float64{4, -5, 6}, 3)
	if got := AddTo(Zeros(3), a, b).Data; got[0] != 5 || got[1] != -3 || got[2] != 9 {
		t.Fatalf("AddTo = %v", got)
	}
}

func TestAXPYAndInPlace(t *testing.T) {
	a := New([]float64{1, 2}, 2)
	b := New([]float64{10, 20}, 2)
	Axpy(a.Data, b.Data, 0.5)
	if a.Data[0] != 6 || a.Data[1] != 12 {
		t.Fatalf("Axpy = %v", a.Data)
	}
	AddInPlace(a, b)
	if a.Data[0] != 16 {
		t.Fatalf("AddInPlace = %v", a.Data)
	}
	ScaleInPlace(a, 0)
	if a.Data[0] != 0 || a.Data[1] != 0 {
		t.Fatalf("ScaleInPlace = %v", a.Data)
	}
}

func TestLerpEndpoints(t *testing.T) {
	a, b := []float64{1, 1}, []float64{3, 3}
	lerp := func(alpha float64) float64 {
		dst := make([]float64, 2)
		Lerp(dst, a, b, alpha, 1-alpha)
		return dst[0]
	}
	if got := lerp(1); got != 1 {
		t.Fatalf("Lerp alpha=1 = %v, want a", got)
	}
	if got := lerp(0); got != 3 {
		t.Fatalf("Lerp alpha=0 = %v, want b", got)
	}
	if got := lerp(0.5); got != 2 {
		t.Fatalf("Lerp alpha=0.5 = %v, want midpoint", got)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := New([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := New([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMulTo(Zeros(2, 2), a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMulTo[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	a := rng.Randn(1, 4, 4)
	id := Zeros(4, 4)
	for i := 0; i < 4; i++ {
		id.Data[i*4+i] = 1
	}
	c := MatMulTo(Zeros(4, 4), a, id)
	for i := range a.Data {
		if !almostEqual(c.Data[i], a.Data[i], 1e-12) {
			t.Fatalf("A*I != A at %d", i)
		}
	}
}

// TestMatMulTransVariants: on the same logical operands the transposed-A
// form equals the plain one bit for bit (same ascending chain), and the
// transposed-B form matches it within rounding (4-way partial sums).
func TestMatMulTransVariants(t *testing.T) {
	rng := NewRNG(2)
	a, b := rng.Randn(1, 3, 5), rng.Randn(1, 5, 4)
	at, bt := Zeros(5, 3), Zeros(4, 5)
	for p := 0; p < 5; p++ {
		for i := 0; i < 3; i++ {
			at.Data[p*3+i] = a.Data[i*5+p]
		}
		for j := 0; j < 4; j++ {
			bt.Data[j*5+p] = b.Data[p*4+j]
		}
	}
	want := MatMulTo(Zeros(3, 4), a, b)
	gotTA := MatMulTransAAcc(Zeros(3, 4), at, b)
	gotTB := MatMulTransBTo(Zeros(3, 4), a, bt)
	for i, w := range want.Data {
		if gotTA.Data[i] != w {
			t.Fatalf("MatMulTransAAcc mismatch at %d: %v vs %v", i, gotTA.Data[i], w)
		}
		if !almostEqual(gotTB.Data[i], w, 1e-12) {
			t.Fatalf("MatMulTransBTo mismatch at %d: %v vs %v", i, gotTB.Data[i], w)
		}
	}
}

func TestMatMulDistributesOverAdd(t *testing.T) {
	// (A+B)C == AC + BC exactly up to float tolerance.
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		m, k, n := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		a := rng.Randn(1, m, k)
		b := rng.Randn(1, m, k)
		c := rng.Randn(1, k, n)
		lhs := MatMulTo(Zeros(m, n), AddTo(Zeros(m, k), a, b), c)
		rhs := MatMulAcc(MatMulTo(Zeros(m, n), a, c), b, c)
		for i := range lhs.Data {
			if !almostEqual(lhs.Data[i], rhs.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIm2ColKnown(t *testing.T) {
	// 1 channel 3x3 image, 2x2 kernel, stride 1, no pad -> 4 patches.
	img := New([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, Stride: 1, Pad: 0}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cols := Im2ColTo(Zeros(4, 4), img, g)
	// First row = top-left value of each patch: 1,2,4,5.
	want := []float64{1, 2, 4, 5}
	for i, w := range want {
		if cols.Data[i] != w {
			t.Fatalf("Im2Col row0[%d] = %v, want %v", i, cols.Data[i], w)
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	img := New([]float64{1, 2, 3, 4}, 1, 2, 2)
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	cols := Im2ColTo(Zeros(9, 4), img, g)
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
		rng := NewRNG(seed)
		g := ConvGeom{
			InC: 1 + rng.Intn(3), InH: 3 + rng.Intn(4), InW: 3 + rng.Intn(4),
			KH: 1 + rng.Intn(3), KW: 1 + rng.Intn(3), Stride: 1 + rng.Intn(2), Pad: rng.Intn(2),
		}
		if g.Validate() != nil {
			return true // skip degenerate geometry
		}
		x := rng.Randn(1, g.InC, g.InH, g.InW)
		y := rng.Randn(1, g.InC*g.KH*g.KW, g.OutH()*g.OutW())
		lhs, rhs := 0.0, 0.0
		for i, v := range Im2ColTo(Zeros(y.Shape...), x, g).Data {
			lhs += v * y.Data[i]
		}
		for i, v := range Col2ImTo(Zeros(x.Shape...), y, g).Data {
			rhs += x.Data[i] * v
		}
		return almostEqual(lhs, rhs, 1e-8*(1+math.Abs(lhs)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConvGeomValidate(t *testing.T) {
	bad := []ConvGeom{
		{InC: 0, InH: 4, InW: 4, KH: 2, KW: 2, Stride: 1},
		{InC: 1, InH: 4, InW: 4, KH: 0, KW: 2, Stride: 1},
		{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, Stride: 0},
		{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, Stride: 1, Pad: -1},
		{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, Stride: 1, Pad: 0},
		{InC: 1, InH: 4, InW: 4, KH: 5, KW: 3, Stride: 2, Pad: 0}, // (4-5)/2+1 truncates to 1
	}
	for i, g := range bad {
		if g.Validate() == nil {
			t.Fatalf("case %d: expected validation error for %+v", i, g)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(7)
	b := NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	g := NewRNG(7)
	c1 := g.Split()
	c2 := g.Split()
	same := true
	for i := 0; i < 16; i++ {
		if c1.Float64() != c2.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("split children should differ")
	}
}

func TestDirichletIsDistribution(t *testing.T) {
	g := NewRNG(3)
	for _, alpha := range []float64{0.05, 0.1, 0.5, 1, 10} {
		p := g.Dirichlet(alpha, 10)
		sum := 0.0
		for _, v := range p {
			if v < 0 {
				t.Fatalf("alpha=%v: negative mass %v", alpha, v)
			}
			sum += v
		}
		if !almostEqual(sum, 1, 1e-9) {
			t.Fatalf("alpha=%v: sum = %v", alpha, sum)
		}
	}
}

func TestDirichletConcentration(t *testing.T) {
	// Small alpha should concentrate mass; large alpha should spread it.
	g := NewRNG(11)
	maxOf := func(alpha float64) float64 {
		tot := 0.0
		for trial := 0; trial < 50; trial++ {
			p := g.Dirichlet(alpha, 10)
			m := 0.0
			for _, v := range p {
				if v > m {
					m = v
				}
			}
			tot += m
		}
		return tot / 50
	}
	small, large := maxOf(0.1), maxOf(100)
	if small <= large {
		t.Fatalf("expected concentration: max(alpha=0.1)=%v should exceed max(alpha=100)=%v", small, large)
	}
	if large > 0.25 {
		t.Fatalf("alpha=100 should be near uniform, got max share %v", large)
	}
}

func TestDirichletIntoMatchesDirichlet(t *testing.T) {
	// DirichletInto must be Dirichlet into caller memory: same values and
	// same stream position, whatever the buffer held before. alpha=1e-300
	// underflows every Gamma draw to 0, which covers the one-hot fallback.
	for _, alpha := range []float64{0.1, 0.5, 1, 5, 1e-300} {
		a, b := NewRNG(17), NewRNG(17)
		buf := make([]float64, 12)
		for call := 0; call < 3; call++ {
			for i := range buf {
				buf[i] = math.NaN()
			}
			want := a.Dirichlet(alpha, len(buf))
			b.DirichletInto(buf, alpha)
			if !slices.Equal(buf, want) {
				t.Fatalf("alpha=%v call %d: DirichletInto %v, want %v", alpha, call, buf, want)
			}
			if a.State() != b.State() {
				t.Fatalf("alpha=%v call %d: position %+v, want %+v", alpha, call, b.State(), a.State())
			}
		}
		if alpha == 1e-300 {
			ones := 0
			for _, v := range buf {
				if v == 1 {
					ones++
				} else if v != 0 {
					t.Fatalf("alpha=%v: fallback left %v in a one-hot vector", alpha, v)
				}
			}
			if ones != 1 {
				t.Fatalf("alpha=%v: fallback set %d entries, want exactly 1", alpha, ones)
			}
		}
	}
}

func TestGammaMoments(t *testing.T) {
	g := NewRNG(5)
	const n = 20000
	for _, shape := range []float64{0.3, 1, 4} {
		d, c := gammaDC(shape)
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += g.gamma(shape, d, c)
		}
		mean := sum / n
		if !almostEqual(mean, shape, 0.12*math.Max(shape, 1)) {
			t.Fatalf("Gamma(%v) sample mean %v too far from %v", shape, mean, shape)
		}
	}
}

// TestUniformRejectsReversedBounds: bounds out of order or NaN panic by
// name instead of filling a tensor from an empty or undefined interval.
func TestUniformRejectsReversedBounds(t *testing.T) {
	for _, b := range [][2]float64{{1, -1}, {math.NaN(), 1}, {0, math.NaN()}} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("Uniform(%v, %v) did not panic", b[0], b[1])
				}
			}()
			NewRNG(1).Uniform(b[0], b[1], 2)
		}()
	}
	if u := NewRNG(1).Uniform(2, 2, 3); u.Data[0] != 2 {
		t.Fatalf("Uniform(2, 2) = %v", u.Data)
	}
}

func TestFullFillZero(t *testing.T) {
	a := New([]float64{math.Copysign(0, -1), math.NaN(), 3}, 3)
	if a.Zero(); math.Float64bits(a.Data[0])|math.Float64bits(a.Data[1])|math.Float64bits(a.Data[2]) != 0 {
		t.Fatalf("Zero left %v, want +0 everywhere", a.Data)
	}
}

func TestApply(t *testing.T) {
	a := New([]float64{-1, 2}, 2)
	b := ApplyTo(Zeros(2), a, math.Abs)
	if b.Data[0] != 1 || b.Data[1] != 2 {
		t.Fatalf("ApplyTo = %v", b.Data)
	}
	if a.Data[0] != -1 {
		t.Fatal("ApplyTo must not mutate its input")
	}
	ApplyTo(a, a, math.Abs)
	if a.Data[0] != 1 {
		t.Fatalf("aliased ApplyTo = %v", a.Data)
	}
}

func TestSplitNMatchesConsecutiveSplits(t *testing.T) {
	// SplitN(n) must consume exactly the draws of n Split calls and seed
	// identical children — algorithms rely on this when they batch their
	// per-client pre-dispatch splits.
	a, b := NewRNG(7), NewRNG(7)
	children := a.SplitN(5)
	for i := 0; i < 5; i++ {
		want := b.Split()
		for d := 0; d < 3; d++ {
			if got, w := children[i].Int63(), want.Int63(); got != w {
				t.Fatalf("child %d draw %d: SplitN stream %d != Split stream %d", i, d, got, w)
			}
		}
	}
	if a.Int63() != b.Int63() {
		t.Fatal("SplitN consumed a different number of parent draws than n Splits")
	}
}
