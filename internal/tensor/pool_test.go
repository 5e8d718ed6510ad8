package tensor

import (
	"math"
	"testing"
)

// scalarPool2x2 is the reference 2×2/2 max pool with argmax — the exact
// loop nn.MaxPool2D runs when the accelerated kernel declines.
func scalarPool2x2(dst []float64, am []int, src []float64, w, oh, ow, planes int, start float64) {
	h := 2 * oh
	for c := 0; c < planes; c++ {
		obase := c * oh * ow
		ibase := c * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := start
				bestIdx := -1
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						idx := ibase + (oy*2+dy)*w + (ox*2 + dx)
						if src[idx] > best {
							best = src[idx]
							bestIdx = idx
						}
					}
				}
				o := obase + oy*ow + ox
				dst[o] = best
				am[o] = bestIdx
			}
		}
	}
}

// TestMaxPool2x2MatchesScalar pins the accelerated pool kernel against
// the scalar reference bit for bit — values and argmax indices — for
// both start values (-Inf, a plain pool; +0, a pool with a ReLU folded
// in), across random shapes — 4-wide planes, which the kernel takes two
// row pairs at a time, among them — with NaN, ±Inf, signed zeros and
// denormals injected and ties forced: the cases where a compare-and-blend
// kernel could legally diverge from the scalar first-strictly-greater
// semantics.
func TestMaxPool2x2MatchesScalar(t *testing.T) {
	rng := NewRNG(7)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324, -2.5e-310}
	for _, start := range []float64{math.Inf(-1), 0} {
		ran, ranNarrow := false, false
		for trial := 0; trial < 100; trial++ {
			w := 4 * (1 + rng.Intn(3))
			oh := 1 + rng.Intn(5)
			ow := w / 2
			planes := 1 + rng.Intn(6)
			src := make([]float64, planes*2*oh*w)
			for i := range src {
				src[i] = rng.Normal(0, 1)
				if rng.Intn(6) == 0 {
					src[i] = specials[rng.Intn(len(specials))]
				}
				if rng.Intn(10) == 0 {
					src[i] = src[(i+7)%len(src)] // force ties
				}
			}
			if trial%10 == 0 {
				for i := range src[:2*w] { // a row of windows nothing positive enters
					src[i] = -math.Abs(src[i])
				}
			}
			d1 := make([]float64, planes*oh*ow)
			a1 := make([]int, planes*oh*ow)
			d2 := make([]float64, planes*oh*ow)
			a2 := make([]int, planes*oh*ow)
			if !MaxPool2x2(d1, a1, src, w, oh, ow, planes, start) {
				continue // no accelerated kernel on this platform/shape
			}
			ran = true
			ranNarrow = ranNarrow || w == 4
			scalarPool2x2(d2, a2, src, w, oh, ow, planes, start)
			for i := range d1 {
				if math.Float64bits(d1[i]) != math.Float64bits(d2[i]) || a1[i] != a2[i] {
					t.Fatalf("start %v trial %d (w=%d oh=%d planes=%d) idx %d: accelerated (%v,%d) scalar (%v,%d)",
						start, trial, w, oh, planes, i, d1[i], a1[i], d2[i], a2[i])
				}
			}
		}
		if !ran {
			t.Skip("no accelerated maxpool kernel on this platform")
		}
		if !ranNarrow {
			t.Fatalf("start %v: no 4-wide plane reached the accelerated kernel", start)
		}
	}
}

func BenchmarkMaxPool2x2(b *testing.B) {
	const w, oh, ow, planes = 8, 4, 4, 8
	rng := NewRNG(1)
	src := make([]float64, planes*2*oh*w)
	for i := range src {
		src[i] = rng.Normal(0, 1)
	}
	dst := make([]float64, planes*oh*ow)
	am := make([]int, planes*oh*ow)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !MaxPool2x2(dst, am, src, w, oh, ow, planes, math.Inf(-1)) {
				b.Skip("no accelerated kernel")
			}
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scalarPool2x2(dst, am, src, w, oh, ow, planes, math.Inf(-1))
		}
	})
}
