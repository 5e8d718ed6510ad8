// Package tensor implements dense multi-dimensional float64 arrays and the
// linear-algebra kernels needed by the nn package: elementwise arithmetic,
// matrix multiplication, the Winograd convolution kernels (with
// im2col/col2im, the lowering the tests hold them to), reductions, and a
// deterministic random source for reproducible experiments.
//
// Tensors use a flat row-major backing slice. Every hot-path kernel has a
// destination-passing form (AddTo, MatMulTo, MatMulAcc, ...) that
// writes into a caller-owned buffer, and the package provides two
// recycling facilities — Ensure for long-lived per-layer buffers and the
// GetScratch/PutScratch arena for call-scoped temporaries — so
// steady-state training allocates nothing per batch. Matrix multiplies
// are cache-blocked and run on the calling goroutine: the package starts
// none, and every fan-out is one level up, leased from the fl worker
// budget. Kernels perform no value-dependent shortcuts:
// 0·NaN and 0·Inf propagate per IEEE-754 instead of being masked.
package tensor

import (
	"fmt"
	"strings"
)

// Tensor is a dense row-major array of float64 values.
//
// The zero value is an empty scalar-less tensor; use New, Zeros or one of
// the random constructors to obtain a usable tensor.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New constructs a tensor with the given shape backed by data. The length
// of data must equal the product of the shape dimensions.
func New(data []float64, shape ...int) *Tensor {
	n := Numel(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: New: data length %d does not match shape %v (numel %d)", len(data), shape, n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Zeros returns a zero-filled tensor with the given shape.
func Zeros(shape ...int) *Tensor {
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, Numel(shape))}
}

// Numel returns the number of elements implied by shape.
func Numel(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Copy before formatting: referencing shape itself in the panic
			// would make every caller's variadic shape slice escape to the
			// heap, defeating the zero-allocation hot path.
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// Len returns the total number of elements in t.
func (t *Tensor) Len() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

// Zero sets every element of t to +0, as one memclr (Fill's variable
// operand keeps the compiler from turning its loop into one).
func (t *Tensor) Zero() { clear(t.Data) }

// String renders a compact description: shape plus up to eight leading
// elements, which is enough for debugging without flooding logs.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.Shape)
	n := len(t.Data)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4g", t.Data[i])
	}
	if len(t.Data) > 8 {
		b.WriteString(" ...")
	}
	b.WriteByte(']')
	return b.String()
}
