package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// equalBits fails the test at the first element whose bit pattern
// differs — the batched/backends contract is exact, not approximate.
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

// TestBatchMatMulMatchesLooped pins every BatchMatMul* form against a
// loop of the corresponding single-matmul kernel over per-group views —
// the per-group bit-identity contract the batched nn layers rely on.
func TestBatchMatMulMatchesLooped(t *testing.T) {
	rng := NewRNG(3)
	const G, m, k, n = 3, 4, 5, 6
	a := rng.Uniform(-1, 1, G, m, k)
	dstB := Zeros(G, m, n)
	dstL := Zeros(G, m, n)
	groupView := func(t3 *Tensor, g, r, c int) *Tensor {
		return New(t3.Data[g*r*c:(g+1)*r*c], r, c)
	}

	t.Run("NN", func(t *testing.T) {
		b := rng.Uniform(-1, 1, G, k, n)
		BatchMatMulTo(dstB, a, b)
		for g := 0; g < G; g++ {
			MatMulTo(groupView(dstL, g, m, n), groupView(a, g, m, k), groupView(b, g, k, n))
		}
		equalBits(t, "to", dstB.Data, dstL.Data)
		BatchMatMulAcc(dstB, a, b)
		for g := 0; g < G; g++ {
			MatMulAcc(groupView(dstL, g, m, n), groupView(a, g, m, k), groupView(b, g, k, n))
		}
		equalBits(t, "acc", dstB.Data, dstL.Data)
	})

	t.Run("TransA", func(t *testing.T) {
		// a slab (G×m×k) holds each group's logical k×m operand.
		b := rng.Uniform(-1, 1, G, m, n)
		dB := Zeros(G, k, n)
		dL := Zeros(G, k, n)
		BatchMatMulTransATo(dB, a, b)
		for g := 0; g < G; g++ {
			MatMulTransATo(groupView(dL, g, k, n), groupView(a, g, m, k), groupView(b, g, m, n))
		}
		equalBits(t, "to", dB.Data, dL.Data)
		BatchMatMulTransAAcc(dB, a, b)
		for g := 0; g < G; g++ {
			MatMulTransAAcc(groupView(dL, g, k, n), groupView(a, g, m, k), groupView(b, g, m, n))
		}
		equalBits(t, "acc", dB.Data, dL.Data)
	})

	t.Run("TransB", func(t *testing.T) {
		b := rng.Uniform(-1, 1, G, n, k)
		BatchMatMulTransBTo(dstB, a, b)
		for g := 0; g < G; g++ {
			MatMulTransBTo(groupView(dstL, g, m, n), groupView(a, g, m, k), groupView(b, g, n, k))
		}
		equalBits(t, "to", dstB.Data, dstL.Data)
		BatchMatMulTransBAcc(dstB, a, b)
		for g := 0; g < G; g++ {
			MatMulTransBAcc(groupView(dstL, g, m, n), groupView(a, g, m, k), groupView(b, g, n, k))
		}
		equalBits(t, "acc", dstB.Data, dstL.Data)
	})

	t.Run("BroadcastA", func(t *testing.T) {
		// Rank-2 a multiplies every group by the same matrix.
		a2 := rng.Uniform(-1, 1, m, k)
		b := rng.Uniform(-1, 1, G, k, n)
		BatchMatMulTo(dstB, a2, b)
		for g := 0; g < G; g++ {
			MatMulTo(groupView(dstL, g, m, n), a2, groupView(b, g, k, n))
		}
		equalBits(t, "to", dstB.Data, dstL.Data)
	})
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
		{"MatMulTransBSegAcc", func(dst *Tensor) {
			// a (m×k) with k=13 has no small divisor other than 13 itself;
			// use the full reduction as one segment plus a finer split on
			// a compatible operand below.
			MatMulTransBSegAcc(dst, a, bt, k)
		}},
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
