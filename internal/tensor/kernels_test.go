package tensor

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// --- destination-passing kernels: correctness against the allocating forms ---

func TestToKernelsMatchAllocatingForms(t *testing.T) {
	rng := NewRNG(41)
	a := rng.Randn(1, 3, 4)
	b := rng.Randn(1, 3, 4)
	dst := Zeros(3, 4)

	check := func(name string, got, want *Tensor) {
		t.Helper()
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s mismatch at %d: %v vs %v", name, i, got.Data[i], want.Data[i])
			}
		}
	}
	check("AddTo", AddTo(dst, a, b), Add(a, b))
	check("SubTo", SubTo(dst, a, b), Sub(a, b))
	check("MulTo", MulTo(dst, a, b), Mul(a, b))
	check("ScaleTo", ScaleTo(dst, a, 1.5), Scale(a, 1.5))
	check("LerpTo", LerpTo(dst, a, b, 0.99), Lerp(a, b, 0.99))
	check("ApplyTo", ApplyTo(dst, a, math.Abs), Apply(a, math.Abs))
}

func TestToKernelsAliasing(t *testing.T) {
	a := New([]float64{1, 2, 3}, 3)
	b := New([]float64{10, 20, 30}, 3)
	// dst aliasing an operand must behave like the out-of-place op.
	AddTo(a, a, b)
	if a.Data[0] != 11 || a.Data[2] != 33 {
		t.Fatalf("aliased AddTo = %v", a.Data)
	}
	LerpTo(b, b, b, 0.25)
	if b.Data[1] != 20 {
		t.Fatalf("aliased LerpTo = %v", b.Data)
	}
}

func TestMatMulToRejectsAliasedDst(t *testing.T) {
	a := Zeros(2, 2)
	b := Zeros(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("MatMulTo with dst == operand should panic")
		}
	}()
	MatMulTo(a, a, b)
}

// TestMatMulVariantsMatchReference pins the blocked/unrolled kernels (and
// their Acc forms) against a naive triple loop on random shapes large
// enough to cross block boundaries.
func TestMatMulVariantsMatchReference(t *testing.T) {
	naive := func(a, b *Tensor) *Tensor {
		m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
		out := Zeros(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for p := 0; p < k; p++ {
					s += a.Data[i*k+p] * b.Data[p*n+j]
				}
				out.Data[i*n+j] = s
			}
		}
		return out
	}
	rng := NewRNG(7)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 4}, {7, 300, 9}, {5, 130, 270}, {2, 257, 513}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := rng.Randn(1, m, k)
		b := rng.Randn(1, k, n)
		want := naive(a, b)
		tol := 1e-9 * math.Sqrt(float64(k))

		got := MatMul(a, b)
		gotTA := MatMulTransA(Transpose(a), b)
		gotTB := MatMulTransB(a, Transpose(b))
		acc := Full(1, m, n)
		MatMulAcc(acc, a, b)
		for i := range want.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > tol {
				t.Fatalf("MatMul(%v) off at %d: %v vs %v", dims, i, got.Data[i], want.Data[i])
			}
			if math.Abs(gotTA.Data[i]-want.Data[i]) > tol {
				t.Fatalf("MatMulTransA(%v) off at %d", dims, i)
			}
			if math.Abs(gotTB.Data[i]-want.Data[i]) > tol {
				t.Fatalf("MatMulTransB(%v) off at %d", dims, i)
			}
			if math.Abs(acc.Data[i]-1-want.Data[i]) > tol {
				t.Fatalf("MatMulAcc(%v) off at %d", dims, i)
			}
		}
	}
}

// TestMatMulParallelBitIdentical forces the row-parallel path (normally
// reserved for large multiplies) and pins that every worker count
// produces bit-identical output — each output row's reduction runs
// entirely on one goroutine in a fixed order.
func TestMatMulParallelBitIdentical(t *testing.T) {
	rng := NewRNG(13)
	m, k, n := 64, 192, 192 // m*k*n > minParallelWork
	if m*k*n < minParallelWork {
		t.Fatalf("test shape too small to trigger the parallel path")
	}
	a := rng.Randn(1, m, k)
	b := rng.Randn(1, k, n)
	bt := Transpose(b)

	prev := MatMulWorkers
	defer func() { MatMulWorkers = prev }()

	MatMulWorkers = 1
	serial := MatMul(a, b)
	serialTB := MatMulTransB(a, bt)
	for _, w := range []int{2, 3, 8} {
		MatMulWorkers = w
		par := MatMul(a, b)
		parTB := MatMulTransB(a, bt)
		for i := range serial.Data {
			if par.Data[i] != serial.Data[i] {
				t.Fatalf("workers=%d: MatMul differs at %d", w, i)
			}
			if parTB.Data[i] != serialTB.Data[i] {
				t.Fatalf("workers=%d: MatMulTransB differs at %d", w, i)
			}
		}
	}
}

// TestMatMulPropagatesNaN is the regression test for the IEEE-unsound
// zero-skip fast path: a zero in A meeting a NaN (or Inf) in B must
// produce NaN in every affected output, not silently contribute 0.
func TestMatMulPropagatesNaN(t *testing.T) {
	a := New([]float64{0, 1, 0, 0}, 2, 2) // row 0 = (0,1), row 1 = (0,0)
	b := New([]float64{math.NaN(), 2, 3, 4}, 2, 2)
	c := MatMul(a, b)
	// out[0,0] = 0*NaN + 1*3 -> NaN under IEEE-754.
	if !math.IsNaN(c.At(0, 0)) {
		t.Fatalf("0*NaN must poison the sum, got %v", c.At(0, 0))
	}
	if !math.IsNaN(c.At(1, 0)) {
		t.Fatalf("all-zero row times NaN column must be NaN, got %v", c.At(1, 0))
	}
	// TransA consumes A transposed: same poison requirement.
	ta := MatMulTransA(a, b)
	if !math.IsNaN(ta.At(0, 0)) {
		t.Fatalf("MatMulTransA must propagate NaN, got %v", ta.At(0, 0))
	}
	// Inf behaves the same way: 0*Inf = NaN.
	b2 := New([]float64{math.Inf(1), 2, 3, 4}, 2, 2)
	if v := MatMul(a, b2).At(1, 0); !math.IsNaN(v) {
		t.Fatalf("0*Inf must yield NaN, got %v", v)
	}
}

// TestArgMaxNaNLoses is the regression test for the NaN-blind argmax: a
// NaN in position 0 used to win because `v > bestV` is false for NaN.
func TestArgMaxNaNLoses(t *testing.T) {
	if got := ArgMax(New([]float64{math.NaN(), 0.2, 0.9}, 3)); got != 2 {
		t.Fatalf("ArgMax with leading NaN = %d, want 2", got)
	}
	if got := ArgMax(New([]float64{0.5, math.NaN(), 0.1}, 3)); got != 0 {
		t.Fatalf("ArgMax with inner NaN = %d, want 0", got)
	}
	// Negative values still beat NaN.
	if got := ArgMax(New([]float64{math.NaN(), -3, -7}, 3)); got != 1 {
		t.Fatalf("ArgMax all-negative = %d, want 1", got)
	}
	// All-NaN has no valid prediction: -1, same as empty.
	if got := ArgMax(New([]float64{math.NaN(), math.NaN()}, 2)); got != -1 {
		t.Fatalf("ArgMax all-NaN = %d, want -1", got)
	}
}

// --- allocation contracts ---

func TestKernelsZeroAlloc(t *testing.T) {
	rng := NewRNG(9)
	a := rng.Randn(1, 16, 24)
	b := rng.Randn(1, 16, 24)
	bt := rng.Randn(1, 24, 16)
	dst := Zeros(16, 24)
	mm := Zeros(16, 16)
	cases := []struct {
		name string
		fn   func()
	}{
		{"AddTo", func() { AddTo(dst, a, b) }},
		{"SubTo", func() { SubTo(dst, a, b) }},
		{"MulTo", func() { MulTo(dst, a, b) }},
		{"ScaleTo", func() { ScaleTo(dst, a, 2) }},
		{"LerpTo", func() { LerpTo(dst, a, b, 0.99) }},
		{"MatMulTo", func() { MatMulTo(mm, a, bt) }},
		{"MatMulAcc", func() { MatMulAcc(mm, a, bt) }},
		{"MatMulTransBTo", func() { MatMulTransBTo(mm, a, b) }},
		{"MatMulTransBAcc", func() { MatMulTransBAcc(mm, a, b) }},
		{"AXPY", func() { AXPY(0.5, a, dst) }},
		{"Ensure", func() { dst = Ensure(dst, 16, 24) }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(20, c.fn); allocs != 0 {
			t.Errorf("%s allocates %v objects/op, want 0", c.name, allocs)
		}
	}
	// TransA's destination differs in shape from dst above.
	ta := Zeros(24, 24)
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"MatMulTransATo", func() { MatMulTransATo(ta, a, b) }},
		{"MatMulTransAAcc", func() { MatMulTransAAcc(ta, a, b) }},
	} {
		if allocs := testing.AllocsPerRun(20, c.fn); allocs != 0 {
			t.Errorf("%s allocates %v objects/op, want 0", c.name, allocs)
		}
	}
}

func TestIm2ColToZeroAllocAndCorrect(t *testing.T) {
	rng := NewRNG(5)
	g := ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
	img := rng.Randn(1, 2, 6, 6)
	want := Im2Col(img, g)
	ws := Zeros(want.Shape...)
	ws.Fill(123) // stale contents must not leak through padding gaps
	Im2ColTo(ws, img, g)
	for i := range want.Data {
		if ws.Data[i] != want.Data[i] {
			t.Fatalf("Im2ColTo mismatch at %d", i)
		}
	}
	grad := rng.Randn(1, want.Shape[0], want.Shape[1])
	wantIm := Col2Im(grad, g)
	dimg := Zeros(2, 6, 6)
	dimg.Fill(-9)
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

// --- scratch arena ---

func TestScratchArenaRecycles(t *testing.T) {
	a := GetScratch(10, 10)
	if a.Len() != 100 {
		t.Fatalf("scratch len %d", a.Len())
	}
	backing := &a.Data[:cap(a.Data)][0]
	PutScratch(a)
	b := GetScratch(9, 9)
	if &b.Data[:cap(b.Data)][0] != backing {
		t.Skip("pool returned different storage (GC ran); nothing to assert")
	}
	if b.Len() != 81 {
		t.Fatalf("recycled scratch len %d", b.Len())
	}
	PutScratch(b)
}

func TestScratchArenaHugeRequestFallsBack(t *testing.T) {
	// Above the pooled range: plain allocation, and PutScratch must drop it
	// rather than pooling a giant buffer. Use a just-over-class size.
	tn := GetScratch((1 << maxScratchBits) / (1 << 10)) // pooled class
	PutScratch(tn)
	if got := scratchClass(1<<maxScratchBits + 1); got != -1 {
		t.Fatalf("oversize request got class %d, want -1", got)
	}
}

func TestEnsureReusesAndGrows(t *testing.T) {
	a := Zeros(4, 4)
	backing := &a.Data[0]
	b := Ensure(a, 2, 8)
	if &b.Data[0] != backing {
		t.Fatal("Ensure must reuse storage when capacity suffices")
	}
	if b.Shape[0] != 2 || b.Shape[1] != 8 {
		t.Fatalf("Ensure shape %v", b.Shape)
	}
	c := Ensure(b, 8, 8)
	if len(c.Data) != 64 {
		t.Fatalf("Ensure grow len %d", len(c.Data))
	}
	if d := Ensure(nil, 3); d.Len() != 3 || d.Data[0] != 0 {
		t.Fatal("Ensure(nil) must return a fresh zero tensor")
	}
}

// --- backends and encoders against their scalar references ---

// equalBits fails the test at the first element whose bit pattern
// differs — the backends contract is exact, not approximate.
func equalBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d: %v vs %v", name, i, got[i], want[i])
		}
	}
}

// TestBackendsBitIdentical runs the full matmul family under the
// platform-default backend and under the pure-Go backend on identical
// inputs and requires exact bitwise agreement — the accelerated
// backend's core contract. On platforms where the default IS GoBackend
// the test degenerates to a self-comparison and passes trivially.
func TestBackendsBitIdentical(t *testing.T) {
	platform := CurrentBackend()
	defer SetBackend(platform)
	rng := NewRNG(5)
	// Odd sizes exercise every vector tail.
	const m, k, n = 7, 13, 9
	a := rng.Uniform(-1, 1, m, k)
	b := rng.Uniform(-1, 1, k, n)
	bt := rng.Uniform(-1, 1, n, k)
	seed := rng.Uniform(-1, 1, m, n)

	type variant struct {
		name string
		run  func(dst *Tensor)
	}
	variants := []variant{
		{"MatMulTo", func(dst *Tensor) { MatMulTo(dst, a, b) }},
		{"MatMulAcc", func(dst *Tensor) { MatMulAcc(dst, a, b) }},
		{"MatMulTransBTo", func(dst *Tensor) { MatMulTransBTo(dst, a, bt) }},
		{"MatMulTransBAcc", func(dst *Tensor) { MatMulTransBAcc(dst, a, bt) }},
	}
	for _, v := range variants {
		d1 := Zeros(m, n)
		copy(d1.Data, seed.Data)
		v.run(d1)
		SetBackend(GoBackend{})
		d2 := Zeros(m, n)
		copy(d2.Data, seed.Data)
		v.run(d2)
		SetBackend(platform)
		equalBits(t, v.name, d1.Data, d2.Data)
	}

	// TransA writes a k×n destination: dst = aᵀ(k×m)·bm(m×n).
	bm := rng.Uniform(-1, 1, m, n)
	dA1 := Zeros(k, n)
	dA2 := Zeros(k, n)
	MatMulTransATo(dA1, a, bm)
	SetBackend(GoBackend{})
	MatMulTransATo(dA2, a, bm)
	SetBackend(platform)
	equalBits(t, "MatMulTransATo", dA1.Data, dA2.Data)
	MatMulTransAAcc(dA1, a, bm)
	SetBackend(GoBackend{})
	MatMulTransAAcc(dA2, a, bm)
	SetBackend(platform)
	equalBits(t, "MatMulTransAAcc", dA1.Data, dA2.Data)

	// GemmTransBSegAcc and GemmBatch have no package-level entry point;
	// call them on each backend directly. k = 13 splits into one segment
	// or thirteen.
	for _, seg := range []int{k, 1} {
		segAcc := func(be Backend) []float64 {
			dst := slices.Clone(seed.Data)
			be.GemmTransBSegAcc(dst, a.Data, bt.Data, m, k, n, seg)
			return dst
		}
		equalBits(t, "GemmTransBSegAcc", segAcc(platform), segAcc(GoBackend{}))
	}
	const groups = 3
	as := rng.Uniform(-1, 1, groups, m, k)
	bs := rng.Uniform(-1, 1, groups, k, n)
	for _, strideA := range []int{0, m * k} { // broadcast a, then one a per group
		batch := func(be Backend) []float64 {
			dst := make([]float64, groups*m*n)
			be.GemmBatch(dst, as.Data, bs.Data, groups, m, k, n, m*n, strideA, k*n, false, false, false)
			return dst
		}
		equalBits(t, "GemmBatch", batch(platform), batch(GoBackend{}))
	}
}

// TestFloat16EncodeSliceMatchesScalar pins the unrolled fp16 encoder
// against per-element Float16Bits over randoms and every special class:
// zeros, subnormals, overflow, infinities, NaN, and exact halves.
func TestFloat16EncodeSliceMatchesScalar(t *testing.T) {
	rng := NewRNG(11)
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 65504, -65504, 65520, 70000,
		math.Inf(1), math.Inf(-1), math.NaN(),
		5.96046448e-08, 6.103515625e-05, 1e-300, -1e-300, 2.5e-8,
	}
	for i := 0; i < 100; i++ {
		vals = append(vals, rng.Normal(0, 1))
		vals = append(vals, rng.Normal(0, 1e4))
	}
	// Cover every slice length mod 4 so the unrolled body and the tail
	// both run.
	for length := len(vals) - 4; length <= len(vals); length++ {
		src := vals[:length]
		got := make([]byte, 2*length)
		Float16EncodeSlice(got, src)
		for i, v := range src {
			want := Float16Bits(v)
			have := binary.LittleEndian.Uint16(got[2*i:])
			if have != want {
				t.Fatalf("len %d element %d (%v): slice %#04x scalar %#04x", length, i, v, have, want)
			}
		}
	}
}
