package tensor

import (
	"math"
	"testing"
)

// --- destination-passing kernels: a dirty dst gives a fresh one's result ---

func TestToKernelsMatchAllocatingForms(t *testing.T) {
	rng := NewRNG(41)
	a, b, c := rng.Randn(1, 3, 4), rng.Randn(1, 3, 4), rng.Randn(1, 4, 3)
	for _, k := range []struct {
		name  string
		shape []int
		run   func(dst *Tensor) *Tensor
	}{
		{"AddTo", a.Shape, func(dst *Tensor) *Tensor { return AddTo(dst, a, b) }},
		{"MatMulTo", []int{3, 3}, func(dst *Tensor) *Tensor { return MatMulTo(dst, a, c) }},
		{"MatMulTransBTo", []int{3, 3}, func(dst *Tensor) *Tensor { return MatMulTransBTo(dst, a, b) }},
	} {
		want, got := k.run(Zeros(k.shape...)), k.run(rng.Randn(1, k.shape...))
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s mismatch at %d: %v vs %v", k.name, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestToKernelsAliasing(t *testing.T) {
	a := New([]float64{1, 2, 3}, 3)
	b := New([]float64{10, 20, 30}, 3)
	// dst aliasing an operand must behave like the out-of-place op.
	AddTo(a, a, b)
	if a.Data[0] != 11 || a.Data[2] != 33 {
		t.Fatalf("aliased AddTo = %v", a.Data)
	}
	Lerp(b.Data, b.Data, b.Data, 0.25, 0.75)
	if b.Data[1] != 20 {
		t.Fatalf("aliased Lerp = %v", b.Data)
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
// enough to cross block boundaries. Each form's operands are drawn in its
// own storage order and the loop reads them through their strides.
func TestMatMulVariantsMatchReference(t *testing.T) {
	// naive computes A·B with A(i,p) = a[i·ars+p·aps], B(p,j) = b[p·brs+j·bcs].
	naive := func(a, b *Tensor, m, k, n, ars, aps, brs, bcs int) []float64 {
		out := make([]float64, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				for p := 0; p < k; p++ {
					out[i*n+j] += a.Data[i*ars+p*aps] * b.Data[p*brs+j*bcs]
				}
			}
		}
		return out
	}
	rng := NewRNG(7)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 4}, {7, 300, 9}, {5, 130, 270}, {2, 257, 513}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, at := rng.Randn(1, m, k), rng.Randn(1, k, m)
		b, bt := rng.Randn(1, k, n), rng.Randn(1, n, k)
		tol := 1e-9 * math.Sqrt(float64(k))
		acc := rng.Randn(1, m, n)
		accWant := naive(a, b, m, k, n, k, 1, n, 1)
		for i, v := range acc.Data {
			accWant[i] += v
		}
		for _, c := range []struct {
			name      string
			got, want []float64
		}{
			{"MatMulTo", MatMulTo(Zeros(m, n), a, b).Data, naive(a, b, m, k, n, k, 1, n, 1)},
			{"MatMulTransAAcc", MatMulTransAAcc(Zeros(m, n), at, b).Data, naive(at, b, m, k, n, 1, m, n, 1)},
			{"MatMulTransBTo", MatMulTransBTo(Zeros(m, n), a, bt).Data, naive(a, bt, m, k, n, k, 1, 1, k)},
			{"MatMulAcc", MatMulAcc(acc, a, b).Data, accWant},
		} {
			for i, w := range c.want {
				if math.Abs(c.got[i]-w) > tol {
					t.Fatalf("%s(%v) off at %d: %v vs %v", c.name, dims, i, c.got[i], w)
				}
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
	c := MatMulTo(Zeros(2, 2), a, b)
	// out[0,0] = 0*NaN + 1*3 -> NaN under IEEE-754.
	if !math.IsNaN(c.Data[0]) {
		t.Fatalf("0*NaN must poison the sum, got %v", c.Data[0])
	}
	if !math.IsNaN(c.Data[2]) {
		t.Fatalf("all-zero row times NaN column must be NaN, got %v", c.Data[2])
	}
	// TransA consumes A transposed: same poison requirement.
	if ta := MatMulTransAAcc(Zeros(2, 2), a, b); !math.IsNaN(ta.Data[0]) {
		t.Fatalf("MatMulTransAAcc must propagate NaN, got %v", ta.Data[0])
	}
	// Inf behaves the same way: 0*Inf = NaN.
	b2 := New([]float64{math.Inf(1), 2, 3, 4}, 2, 2)
	if v := MatMulTo(Zeros(2, 2), a, b2).Data[2]; !math.IsNaN(v) {
		t.Fatalf("0*Inf must yield NaN, got %v", v)
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
		{"Lerp", func() { Lerp(dst.Data, a.Data, b.Data, 0.99, 0.01) }},
		{"MatMulTo", func() { MatMulTo(mm, a, bt) }},
		{"MatMulAcc", func() { MatMulAcc(mm, a, bt) }},
		{"MatMulTransBTo", func() { MatMulTransBTo(mm, a, b) }},
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
		{"MatMulTransAAcc", func() { MatMulTransAAcc(ta, a, b) }},
	} {
		if allocs := testing.AllocsPerRun(20, c.fn); allocs != 0 {
			t.Errorf("%s allocates %v objects/op, want 0", c.name, allocs)
		}
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
