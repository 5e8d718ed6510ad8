package tensor

import (
	"math"
	"strings"
	"testing"
)

// glueSpecials are the values a conversion or a copy could get wrong: NaNs
// of two payloads (one signalling, negative), ±Inf, −0, float64 and
// float32 denormals, magnitudes beyond float32 (→ ±Inf) and just inside
// it, and a tie that rounds to even.
var glueSpecials = []float64{
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff4000000000abc),
	math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -2.5e-310, 1e-40, -3e-45,
	1e39, -1e300, math.MaxFloat32, -math.MaxFloat32 * (1 + 0x1p-25), 1 + 0x1p-24,
}

// glueValues returns n N(0, 1) draws with about one in five replaced by a
// special.
func glueValues(rng *RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Normal(0, 1)
		if rng.Intn(5) == 0 {
			v[i] = glueSpecials[rng.Intn(len(glueSpecials))]
		}
	}
	return v
}

// glueShapes are the plane sweeps: widths 0–13 (multiples of four take the
// assembly, ragged ones the twin), pad 0–2, zero planes and zero rows.
func glueShapes(f func(planes, h, w, pad int)) {
	for w := 0; w <= 13; w++ {
		for pad := 0; pad <= 2; pad++ {
			for _, ph := range [][2]int{{0, 3}, {1, 1}, {3, 2}, {5, 4}, {2, 0}} {
				f(ph[0], ph[1], w, pad)
			}
		}
	}
}

// TestNarrowPaddedMatchesTwin holds NarrowPadded to its twin and to the
// loops nn.Conv2D ran before it — per plane and row into the padded
// interiors, element by element at pad 0 — bit for bit, NaN payloads
// included, and checks that no border element is written.
func TestNarrowPaddedMatchesTwin(t *testing.T) {
	rng := NewRNG(41)
	sentinel := math.Float32frombits(0x7fc0dead)
	glueShapes(func(planes, h, w, pad int) {
		src := glueValues(rng, planes*h*w)
		ph, pw := h+2*pad, w+2*pad
		n := planes * ph * pw
		got, twin, loop := make([]float32, n), make([]float32, n), make([]float32, n)
		for i := range got {
			got[i], twin[i], loop[i] = sentinel, sentinel, sentinel
		}
		NarrowPadded(got, src, planes, h, w, pad)
		NarrowPaddedGo(twin, src, planes, h, w, pad)
		if pad == 0 {
			for i, v := range src {
				loop[i] = float32(v)
			}
		} else {
			for i := 0; i < planes; i++ {
				dst := loop[(i*ph+pad)*pw+pad:]
				for y := 0; y < h; y++ {
					row := dst[y*pw : y*pw+w]
					for j, v := range src[(i*h+y)*w : (i*h+y+1)*w] {
						row[j] = float32(v)
					}
				}
			}
		}
		for i := range loop {
			if math.Float32bits(got[i]) != math.Float32bits(loop[i]) || math.Float32bits(twin[i]) != math.Float32bits(loop[i]) {
				t.Fatalf("%d planes of %dx%d pad %d, element %d: kernel %#x, twin %#x, loop %#x",
					planes, h, w, pad, i, math.Float32bits(got[i]), math.Float32bits(twin[i]), math.Float32bits(loop[i]))
			}
		}
	})
}

// TestUnpool2x2MatchesScatter holds Unpool2x2 to its twin and to the loop
// nn.MaxPool2D.Backward ran before it (dx zeroed, then each winner's
// gradient added) bit for bit, over rows of 1–9 windows (multiples of four
// and 2-wide planes in even row-pair counts take the assembly), 0–5 row
// pairs and batches 0–3, with argmax -1 windows and −0, NaN and ±Inf
// gradients. A −0 gradient lands as +0, as +0 + −0 does.
func TestUnpool2x2MatchesScatter(t *testing.T) {
	rng := NewRNG(47)
	negZero := math.Copysign(0, -1)
	for ow := 1; ow <= 9; ow++ {
		for pairs := 0; pairs <= 5; pairs++ {
			for batch := 0; batch <= 3; batch++ {
				w, outLen := 2*ow, pairs*ow
				inLen := 2 * w * pairs
				g := glueValues(rng, batch*outLen)
				am := make([]int, batch*outLen)
				for b := 0; b < batch; b++ {
					for r := 0; r < pairs; r++ {
						for ox := 0; ox < ow; ox++ {
							o := b*outLen + r*ow + ox
							tl := 2*r*w + 2*ox
							am[o] = [5]int{-1, tl, tl + 1, tl + w, tl + w + 1}[rng.Intn(5)]
							if rng.Intn(7) == 0 {
								g[o] = negZero
							}
						}
					}
				}
				got, twin, loop := glueValues(rng, batch*inLen), glueValues(rng, batch*inLen), make([]float64, batch*inLen)
				Unpool2x2(got, g, am, ow, pairs, batch)
				Unpool2x2Go(twin, g, am, ow, pairs, batch)
				for b := 0; b < batch; b++ {
					for o, idx := range am[b*outLen : (b+1)*outLen] {
						if idx >= 0 {
							loop[b*inLen+idx] += g[b*outLen+o]
						}
					}
				}
				for i := range loop {
					if math.Float64bits(got[i]) != math.Float64bits(loop[i]) || math.Float64bits(twin[i]) != math.Float64bits(loop[i]) {
						t.Fatalf("ow %d, %d pairs, batch %d, cell %d: kernel %#x, twin %#x, loop %#x",
							ow, pairs, batch, i, math.Float64bits(got[i]), math.Float64bits(twin[i]), math.Float64bits(loop[i]))
					}
				}
			}
		}
	}
	// One window per case, alone: a −0 winner and a window with no winner
	// both leave four +0 cells.
	for _, c := range []struct {
		am int
		g  float64
	}{{0, negZero}, {3, negZero}, {-1, 7}} {
		for _, run := range []func([]float64, []float64, []int, int, int, int){Unpool2x2, Unpool2x2Go} {
			dx := []float64{1, 2, 3, 4}
			run(dx, []float64{c.g}, []int{c.am}, 1, 1, 1)
			for i, v := range dx {
				if math.Float64bits(v) != 0 {
					t.Errorf("argmax %d, gradient %v: cell %d is %v (%#x), want +0", c.am, c.g, i, v, math.Float64bits(v))
				}
			}
		}
	}
}

// TestGlueKernelsRejectShortSlices checks that a slice one element short
// of its shape, or a shape no kernel can take, panics in the wrapper,
// naming the kernel, before anything is read or written.
func TestGlueKernelsRejectShortSlices(t *testing.T) {
	const planes, h, w, pad = 3, 4, 8, 1
	flat, padded := planes*h*w, planes*(h+2*pad)*(w+2*pad)
	const ow, pairs, batch = 4, 2, 3
	cells, outs := batch*pairs*4*ow, batch*pairs*ow
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"NarrowPadded", func() { NarrowPadded(make([]float32, padded-1), make([]float64, flat), planes, h, w, pad) }},
		{"NarrowPadded", func() { NarrowPadded(make([]float32, padded), make([]float64, flat-1), planes, h, w, pad) }},
		{"NarrowPadded", func() { NarrowPadded(make([]float32, flat-1), make([]float64, flat), planes, h, w, 0) }},
		{"NarrowPadded", func() { NarrowPadded(make([]float32, padded), make([]float64, flat), planes, h, w, -1) }},
		{"Unpool2x2", func() {
			Unpool2x2(make([]float64, cells-1), make([]float64, outs), make([]int, outs), ow, pairs, batch)
		}},
		{"Unpool2x2", func() {
			Unpool2x2(make([]float64, cells), make([]float64, outs-1), make([]int, outs), ow, pairs, batch)
		}},
		{"Unpool2x2", func() {
			Unpool2x2(make([]float64, cells), make([]float64, outs), make([]int, outs-1), ow, pairs, batch)
		}},
		{"Unpool2x2", func() { Unpool2x2(nil, nil, nil, 4, -1, 1) }},
		{"MaxPool2x2", func() {
			MaxPool2x2(make([]float64, outs-1), make([]int, outs), make([]float64, cells), 2*ow, pairs, ow, batch, 0)
		}},
		{"MaxPool2x2", func() {
			MaxPool2x2(make([]float64, outs), make([]int, outs-1), make([]float64, cells), 2*ow, pairs, ow, batch, 0)
		}},
		{"MaxPool2x2", func() {
			MaxPool2x2(make([]float64, outs), make([]int, outs), make([]float64, cells-1), 2*ow, pairs, ow, batch, 0)
		}},
		{"MaxPool2x2", func() {
			MaxPool2x2Go(make([]float64, outs), make([]int, outs), make([]float64, cells), 2*ow-1, pairs, ow, batch, 0)
		}},
		{"MaxPool2x2", func() { MaxPool2x2(nil, nil, nil, 8, 1, -4, 1, 0) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "tensor: "+c.name+" ") {
					t.Errorf("%s: recovered %q, want the wrapper's panic", c.name, msg)
				}
			}()
			c.run()
		}()
	}
}
