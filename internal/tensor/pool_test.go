package tensor

import (
	"math"
	"testing"
)

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
