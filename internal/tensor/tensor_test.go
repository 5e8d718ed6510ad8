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
	if tt.Rank() != 2 || tt.Dim(0) != 2 || tt.Dim(1) != 3 {
		t.Fatalf("unexpected shape %v", tt.Shape)
	}
	if tt.Len() != 6 {
		t.Fatalf("Len = %d, want 6", tt.Len())
	}
	if tt.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", tt.At(1, 2))
	}
	tt.Set(42, 0, 1)
	if tt.At(0, 1) != 42 {
		t.Fatalf("Set/At roundtrip failed")
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

func TestAtPanicsOutOfRange(t *testing.T) {
	tt := Zeros(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range should panic")
		}
	}()
	tt.At(2, 0)
}

func TestCloneIsDeep(t *testing.T) {
	a := New([]float64{1, 2}, 2)
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone shares backing data")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := New([]float64{1, 2, 3, 4}, 4)
	b := a.Reshape(2, 2)
	b.Data[3] = 9
	if a.Data[3] != 9 {
		t.Fatal("Reshape should share backing data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reshape changing numel should panic")
		}
	}()
	a.Reshape(3)
}

func TestElementwiseOps(t *testing.T) {
	a := New([]float64{1, 2, 3}, 3)
	b := New([]float64{4, 5, 6}, 3)
	if got := Add(a, b).Data; got[0] != 5 || got[2] != 9 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a).Data; got[0] != 3 || got[2] != 3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Mul(a, b).Data; got[1] != 10 {
		t.Fatalf("Mul = %v", got)
	}
	if got := Scale(a, 2).Data; got[2] != 6 {
		t.Fatalf("Scale = %v", got)
	}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Sum(a); got != 6 {
		t.Fatalf("Sum = %v, want 6", got)
	}
	if got := Mean(a); got != 2 {
		t.Fatalf("Mean = %v, want 2", got)
	}
}

func TestAXPYAndInPlace(t *testing.T) {
	a := New([]float64{1, 2}, 2)
	b := New([]float64{10, 20}, 2)
	AXPY(0.5, b, a)
	if a.Data[0] != 6 || a.Data[1] != 12 {
		t.Fatalf("AXPY = %v", a.Data)
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
	a := New([]float64{1, 1}, 2)
	b := New([]float64{3, 3}, 2)
	if got := Lerp(a, b, 1).Data[0]; got != 1 {
		t.Fatalf("Lerp alpha=1 = %v, want a", got)
	}
	if got := Lerp(a, b, 0).Data[0]; got != 3 {
		t.Fatalf("Lerp alpha=0 = %v, want b", got)
	}
	if got := Lerp(a, b, 0.5).Data[0]; got != 2 {
		t.Fatalf("Lerp alpha=0.5 = %v, want midpoint", got)
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax(New([]float64{0.1, 0.9, 0.3}, 3)); got != 1 {
		t.Fatalf("ArgMax = %d, want 1", got)
	}
	if got := ArgMax(Zeros(0)); got != -1 {
		t.Fatalf("ArgMax(empty) = %d, want -1", got)
	}
	// Ties resolve to the first maximal index.
	if got := ArgMax(New([]float64{5, 5, 1}, 3)); got != 0 {
		t.Fatalf("ArgMax tie = %d, want 0", got)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := New([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := New([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
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
	c := MatMul(a, id)
	for i := range a.Data {
		if !almostEqual(c.Data[i], a.Data[i], 1e-12) {
			t.Fatalf("A*I != A at %d", i)
		}
	}
}

func TestMatMulTransVariants(t *testing.T) {
	rng := NewRNG(2)
	a := rng.Randn(1, 3, 5)
	b := rng.Randn(1, 4, 5) // b is 4x5; a * bT is 3x4
	got := MatMulTransB(a, b)
	want := MatMul(a, Transpose(b))
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("MatMulTransB mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
	c := rng.Randn(1, 3, 6) // aT * c : (5x3)x(3x6) = 5x6
	got2 := MatMulTransA(a, c)
	want2 := MatMul(Transpose(a), c)
	for i := range want2.Data {
		if !almostEqual(got2.Data[i], want2.Data[i], 1e-12) {
			t.Fatalf("MatMulTransA mismatch at %d", i)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		m := 1 + rng.Intn(6)
		n := 1 + rng.Intn(6)
		a := rng.Randn(1, m, n)
		b := Transpose(Transpose(a))
		if !SameShape(a, b) {
			return false
		}
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
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
		lhs := MatMul(Add(a, b), c)
		rhs := Add(MatMul(a, c), MatMul(b, c))
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
	cols := Im2Col(img, g)
	if cols.Shape[0] != 4 || cols.Shape[1] != 4 {
		t.Fatalf("Im2Col shape %v", cols.Shape)
	}
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
	cols := Im2Col(img, g)
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
		lhs := Dot(Im2Col(x, g), y)
		rhs := Dot(x, Col2Im(y, g))
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
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += g.Gamma(shape)
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

func TestHasNaN(t *testing.T) {
	a := New([]float64{1, 2}, 2)
	if a.HasNaN() {
		t.Fatal("no NaN expected")
	}
	a.Data[1] = math.NaN()
	if !a.HasNaN() {
		t.Fatal("NaN should be detected")
	}
	a.Data[1] = math.Inf(1)
	if !a.HasNaN() {
		t.Fatal("Inf should be detected")
	}
}

func TestFullFillZero(t *testing.T) {
	a := Full(3, 2, 2)
	if Sum(a) != 12 {
		t.Fatalf("Full sum = %v", Sum(a))
	}
	a.Fill(1)
	if Sum(a) != 4 {
		t.Fatalf("Fill sum = %v", Sum(a))
	}
	a.Data[0], a.Data[1] = math.Copysign(0, -1), math.NaN()
	if a.Zero(); math.Float64bits(a.Data[0])|math.Float64bits(a.Data[1]) != 0 || Sum(a) != 0 {
		t.Fatalf("Zero left %v, want +0 everywhere", a.Data)
	}
	if a.MaxAbs() != 0 {
		t.Fatalf("MaxAbs = %v", a.MaxAbs())
	}
}

func TestApply(t *testing.T) {
	a := New([]float64{-1, 2}, 2)
	b := Apply(a, math.Abs)
	if b.Data[0] != 1 || b.Data[1] != 2 {
		t.Fatalf("Apply = %v", b.Data)
	}
	if a.Data[0] != -1 {
		t.Fatal("Apply must not mutate input")
	}
}

func TestNormProperty(t *testing.T) {
	// Triangle inequality: ||a+b|| <= ||a|| + ||b||.
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		n := 1 + rng.Intn(20)
		a := rng.Randn(1, n)
		b := rng.Randn(1, n)
		return Norm(Add(a, b)) <= Norm(a)+Norm(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
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
