package tensor

import (
	"math"
	"testing"
)

// scalarPool2x2 is the reference 2×2/2 max pool with argmax, plane by
// plane and window by window.
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

// TestMaxPool2x2MatchesScalar pins MaxPool2x2 and its twin against the
// scalar reference bit for bit — values and argmax indices — for both
// start values (-Inf, a plain pool; +0, a pool with a ReLU folded in),
// across random shapes — rows of a multiple of four windows and 4-wide
// planes, which the kernel takes, and ragged ones, which it leaves to the
// twin — with NaN, ±Inf, signed zeros and denormals injected and ties
// forced: the cases where a compare-and-blend kernel could legally
// diverge from the scalar first-strictly-greater semantics. On builds
// with the AVX2 backend the kernel must take both of its shape families
// in the sweep, and the two shapes the models pool — 8×8 planes and the
// CNN's second pool, 4×4 planes in pairs — outright; elsewhere it must
// take none, so MaxPool2x2 cannot quietly fall back to its twin.
func TestMaxPool2x2MatchesScalar(t *testing.T) {
	_, portable := defaultBackend.(GoBackend)
	for _, s := range []struct{ w, pairs, ow int }{{8, 4, 4}, {4, 4, 2}} {
		n := s.pairs * s.ow
		if took := maxPool2x2Plane(make([]float64, n), make([]int, n), make([]float64, 2*s.pairs*s.w), s.w, s.pairs, s.ow, 0); took == portable {
			t.Fatalf("%d-wide planes, %d row pairs: accelerated kernel took them: %v, on a build whose backend is %q",
				s.w, s.pairs, took, defaultBackend.Name())
		}
	}
	rng := NewRNG(7)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324, -2.5e-310}
	for _, start := range []float64{math.Inf(-1), 0} {
		narrow, wide := 0, 0 // sweep shapes the kernel took, 4-wide and wider
		for trial := 0; trial < 100; trial++ {
			w := 2 * (1 + rng.Intn(6))
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
			n := planes * oh * ow
			want, wantAM := make([]float64, n), make([]int, n)
			scalarPool2x2(want, wantAM, src, w, oh, ow, planes, start)
			for _, run := range []func([]float64, []int, []float64, int, int, int, int, float64){MaxPool2x2, MaxPool2x2Go} {
				got, am := make([]float64, n), make([]int, n)
				run(got, am, src, w, oh, ow, planes, start)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) || am[i] != wantAM[i] {
						t.Fatalf("start %v trial %d (w=%d oh=%d planes=%d) idx %d: (%v,%d), scalar (%v,%d)",
							start, trial, w, oh, planes, i, got[i], am[i], want[i], wantAM[i])
					}
				}
			}
			if maxPool2x2Plane(make([]float64, n), make([]int, n), src, w, oh*planes, ow, start) {
				if w == 4 {
					narrow++
				} else {
					wide++
				}
			}
		}
		if portable && narrow+wide > 0 || !portable && min(narrow, wide) == 0 {
			t.Fatalf("start %v: accelerated kernel took %d 4-wide and %d wider sweep shapes on a build whose backend is %q",
				start, narrow, wide, defaultBackend.Name())
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
			MaxPool2x2(dst, am, src, w, oh, ow, planes, math.Inf(-1))
		}
	})
	b.Run("twin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MaxPool2x2Go(dst, am, src, w, oh, ow, planes, math.Inf(-1))
		}
	})
}
