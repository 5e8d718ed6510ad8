package tensor

import (
	"math/bits"
	"runtime"
	"sync"
)

// This file implements the two allocation-avoidance facilities the hot
// path is built on:
//
//   - Ensure, which recycles a tensor a caller already owns (layers keep
//     their activation/gradient buffers across batches this way), and
//   - the scratch arena, a set of size-classed sync.Pools for tensors
//     whose lifetime is a single call frame (Get at the top, Put on every
//     exit path).
//
// Ownership rules (also in docs/ARCHITECTURE.md):
//
//  1. A scratch tensor is exclusively owned between GetScratch and
//     PutScratch. Never Put a tensor that has been returned to a caller,
//     stored in a struct that outlives the call, or aliased by a live
//     view — Put transfers ownership back to the arena immediately.
//  2. Contents are unspecified after GetScratch and after Ensure reuses a
//     buffer. Call Zero (or overwrite fully) before accumulating.
//  3. Tensors handed to PutScratch must come from GetScratch; foreign
//     tensors are accepted only if their capacity is an exact size class
//     (others are dropped on the floor, which is safe but wasteful).

// scratch size classes: powers of two from 1<<minScratchBits to
// 1<<maxScratchBits elements. Larger requests fall back to the allocator.
const (
	minScratchBits = 6  // 64 elements, 512 B
	maxScratchBits = 24 // 16.7M elements, 128 MiB
)

var scratchPools [maxScratchBits - minScratchBits + 1]sync.Pool

// scratchClass returns the pool index whose capacity is the smallest size
// class holding n elements, or -1 when n is out of the pooled range.
func scratchClass(n int) int {
	if n > 1<<maxScratchBits {
		return -1
	}
	if n <= 1<<minScratchBits {
		return 0
	}
	return bits.Len(uint(n-1)) - minScratchBits
}

// GetScratch returns a tensor of the given shape backed by pooled storage.
// Contents are unspecified; call Zero before accumulating into it. The
// caller owns the tensor until PutScratch.
func GetScratch(shape ...int) *Tensor {
	n := Numel(shape)
	cls := scratchClass(n)
	if cls < 0 {
		return Zeros(shape...)
	}
	if v := scratchPools[cls].Get(); v != nil {
		t := v.(*Tensor)
		t.Data = t.Data[:n]
		t.Shape = append(t.Shape[:0], shape...)
		return t
	}
	return &Tensor{
		Shape: append([]int(nil), shape...),
		Data:  make([]float64, n, 1<<(cls+minScratchBits)),
	}
}

// PutScratch returns t to the arena. t must not be used (through any
// alias) after the call. Tensors whose capacity is not an exact size
// class — including any request larger than the pooled range — are
// silently discarded to the garbage collector.
func PutScratch(t *Tensor) {
	if t == nil {
		return
	}
	c := cap(t.Data)
	if c < 1<<minScratchBits || c > 1<<maxScratchBits || c&(c-1) != 0 {
		return
	}
	t.Data = t.Data[:c]
	scratchPools[scratchClass(c)].Put(t)
}

// Ensure returns a tensor of the given shape, reusing t's backing storage
// when it is large enough. Contents are unspecified on reuse and zero on
// a fresh allocation. The usual pattern is a struct field refreshed at the
// top of a hot call:
//
//	l.out = tensor.Ensure(l.out, batch, l.Out)
//
// Ensure never shrinks capacity, so steady-state calls with stable shapes
// allocate nothing.
func Ensure(t *Tensor, shape ...int) *Tensor {
	n := Numel(shape)
	if t == nil || cap(t.Data) < n {
		return Zeros(shape...)
	}
	t.Data = t.Data[:n]
	t.Shape = append(t.Shape[:0], shape...)
	return t
}

// MatMulWorkers is the number of goroutines a single large matrix multiply
// may fan out over (0 or 1 disables parallelism). Small multiplies always
// run serially, so per-client training jobs — already parallelised one
// level up by the fl worker pool — are unaffected; the parallel path
// exists for big standalone multiplies (landscape scans, analysis).
// Row-partitioning keeps every output element's reduction order fixed, so
// results are bit-identical at every worker count.
var MatMulWorkers = runtime.GOMAXPROCS(0)

// minParallelWork is the m*k*n product below which a multiply is not worth
// fanning out.
const minParallelWork = 1 << 21

// matmulWorkerCount decides the fan-out for a multiply over m output rows
// with the given m·k·n work estimate. Callers must take the serial path
// themselves when it returns 1, so the small-matrix hot path never even
// constructs a dispatch closure (which would heap-allocate per call).
func matmulWorkerCount(m, work int) int {
	workers := MatMulWorkers
	if workers > m {
		workers = m
	}
	if work < minParallelWork || workers < 1 {
		return 1
	}
	return workers
}

// ParallelChunks runs fn over [0,n) split into contiguous chunks across
// at most workers goroutines (values below 2, or n < 2, run inline). It
// is the element-wise fan-out behind the chunk-parallel codec kernels:
// chunk boundaries depend only on (n, workers), and fn(c, i0, i1) must
// write only state owned by elements [i0, i1) or by the chunk ordinal c
// (a dense index in [0, chunk count) — callers reducing per-chunk
// partials key their scratch by c rather than re-deriving the split), so
// results are bit-identical at every worker count — the same contract as
// the matmul row fan-out above. At most `workers` chunks are produced,
// but possibly fewer.
func ParallelChunks(n, workers int, fn func(c, i0, i1 int)) {
	if workers > n {
		workers = n
	}
	if workers < 2 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for c, i0 := 0, 0; i0 < n; c, i0 = c+1, i0+chunk {
		i1 := i0 + chunk
		if i1 > n {
			i1 = n
		}
		wg.Add(1)
		go func(c, a, b int) {
			defer wg.Done()
			fn(c, a, b)
		}(c, i0, i1)
	}
	wg.Wait()
}

// parallelRows runs fn over [0,m) split into contiguous row chunks across
// the given number of goroutines. fn(i0, i1) must touch only rows [i0,i1)
// of the output.
func parallelRows(m, workers int, fn func(i0, i1 int)) {
	chunk := (m + workers - 1) / workers
	var wg sync.WaitGroup
	for i0 := 0; i0 < m; i0 += chunk {
		i1 := i0 + chunk
		if i1 > m {
			i1 = m
		}
		wg.Add(1)
		go func(a, b int) {
			defer wg.Done()
			fn(a, b)
		}(i0, i1)
	}
	wg.Wait()
}
