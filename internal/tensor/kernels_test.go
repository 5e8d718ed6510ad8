package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
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

// --- serialization hardening ---

// adversarialHeader builds a tensor header with the given rank and dims
// and no payload.
func adversarialHeader(rank uint32, dims ...uint32) []byte {
	buf := make([]byte, 4+4*len(dims))
	binary.LittleEndian.PutUint32(buf, rank)
	for i, d := range dims {
		binary.LittleEndian.PutUint32(buf[4+4*i:], d)
	}
	return buf
}

// hostileHeaders are headers ReadFrom must reject before allocating for
// the payload they promise; they also seed FuzzTensorReadFrom.
var hostileHeaders = []struct {
	name string
	raw  []byte
}{
	{"huge-rank", adversarialHeader(1 << 20)},
	{"huge-dim", adversarialHeader(1, 1<<30)},
	{"overflow-product", adversarialHeader(4, 1<<28, 1<<28, 1<<28, 1<<28)},
	{"over-cap", adversarialHeader(2, 1<<14, 1<<14)},
}

func TestReadFromRejectsHostileHeaders(t *testing.T) {
	for _, c := range hostileHeaders {
		t.Run(c.name, func(t *testing.T) {
			var tt Tensor
			if _, err := tt.ReadFrom(bytes.NewReader(c.raw)); err == nil {
				t.Fatalf("hostile header %q must be rejected", c.name)
			}
		})
	}
}

func TestReadFromTruncatedPayloadBoundedWork(t *testing.T) {
	// A header declaring the maximum plausible tensor followed by a short
	// payload must fail with ErrUnexpectedEOF after bounded reading.
	hdr := adversarialHeader(2, 1<<12, 1<<12) // exactly MaxDecodeElems
	payload := make([]byte, 1024)
	var tt Tensor
	_, err := tt.ReadFrom(bytes.NewReader(append(hdr, payload...)))
	if err == nil {
		t.Fatal("truncated payload must error")
	}
}

func TestReadFromRoundTripPropertyAfterHardening(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		shape := []int{1 + rng.Intn(4), 1 + rng.Intn(5), 1 + rng.Intn(6)}
		orig := rng.Randn(1, shape...)
		var buf bytes.Buffer
		if _, err := orig.WriteTo(&buf); err != nil {
			return false
		}
		var back Tensor
		if _, err := back.ReadFrom(&buf); err != nil {
			return false
		}
		if !SameShape(orig, &back) {
			return false
		}
		for i := range orig.Data {
			if orig.Data[i] != back.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// FuzzTensorReadFrom holds ReadFrom to its contract on untrusted bytes:
// it returns an error or a valid tensor, never panics, and never
// allocates beyond what the stream actually carried (plus one decode
// chunk). A valid tensor re-encodes to exactly the bytes consumed.
func FuzzTensorReadFrom(f *testing.F) {
	for _, c := range hostileHeaders {
		f.Add(c.raw)
	}
	f.Add([]byte{})
	f.Add(append(adversarialHeader(2, 1<<12, 1<<12), make([]byte, 1024)...)) // max tensor, short payload
	f.Add(append(adversarialHeader(0), make([]byte, 8)...))                  // scalar
	f.Add(adversarialHeader(2, 0, 5))                                        // empty
	var valid bytes.Buffer
	if _, err := NewRNG(9).Randn(2, 3).WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-5])

	f.Fuzz(func(t *testing.T, raw []byte) {
		var tt Tensor
		n, err := tt.ReadFrom(bytes.NewReader(raw))
		if n > int64(len(raw)) {
			t.Fatalf("consumed %d of %d bytes", n, len(raw))
		}
		if err != nil {
			if tt.Shape != nil || tt.Data != nil {
				t.Fatalf("failed decode left shape %v, %d elements", tt.Shape, len(tt.Data))
			}
			return
		}
		if 8*cap(tt.Data) > 2*len(raw)+decodeChunkBytes {
			t.Fatalf("decoded %d bytes into capacity for %d elements", len(raw), cap(tt.Data))
		}
		numel, err := checkedNumel(tt.Shape)
		if err != nil || numel != len(tt.Data) {
			t.Fatalf("shape %v (numel %d, %v) with %d elements", tt.Shape, numel, err, len(tt.Data))
		}
		var back bytes.Buffer
		if _, err := tt.WriteTo(&back); err != nil {
			t.Fatalf("decoded tensor does not re-encode: %v", err)
		}
		if !bytes.Equal(back.Bytes(), raw[:n]) {
			t.Fatalf("re-encoded %d bytes differ from the %d consumed", back.Len(), n)
		}
	})
}

func TestReadFromZeroDimTensor(t *testing.T) {
	orig := Zeros(0, 5)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var back Tensor
	if _, err := back.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if back.Len() != 0 || back.Shape[1] != 5 {
		t.Fatalf("zero-dim round trip: shape %v len %d", back.Shape, back.Len())
	}
}
