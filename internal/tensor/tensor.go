// Package tensor implements dense multi-dimensional float64 arrays and the
// linear-algebra kernels needed by the nn package: elementwise arithmetic,
// matrix multiplication, im2col/col2im for convolutions, reductions, and a
// deterministic random source for reproducible experiments.
//
// Tensors use a flat row-major backing slice. Every hot-path kernel has a
// destination-passing form (AddTo, LerpTo, MatMulTo, MatMulAcc, ...) that
// writes into a caller-owned buffer, and the package provides two
// recycling facilities — Ensure for long-lived per-layer buffers and the
// GetScratch/PutScratch arena for call-scoped temporaries — so
// steady-state training allocates nothing per batch. Matrix multiplies
// are cache-blocked; small multiplies run serially (jobs are parallelised
// one level up by the fl worker pool), while large standalone multiplies
// fan out over row chunks (see MatMulWorkers) with bit-identical results
// at every worker count. Kernels perform no value-dependent shortcuts:
// 0·NaN and 0·Inf propagate per IEEE-754 instead of being masked.
package tensor

import (
	"fmt"
	"math"
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

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := Zeros(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
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

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	d := make([]float64, len(t.Data))
	copy(d, t.Data)
	return New(d, t.Shape...)
}

// Reshape returns a view of t with a new shape sharing the same backing
// data. The element count must be preserved.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	if Numel(shape) != len(t.Data) {
		panic(fmt.Sprintf("tensor: Reshape %v -> %v changes element count", t.Shape, shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 {
	return t.Data[t.offset(idx)]
}

// Set assigns v to the element at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

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

// Fill sets every element of t to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
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

// MaxAbs returns the largest absolute element value, or 0 for an empty
// tensor.
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// HasNaN reports whether any element is NaN or infinite.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}
