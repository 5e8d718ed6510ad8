package tensor

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
)

// convTables builds the direct kernels' index tables for g, as nn.Conv2D
// does, and the length of one padded sample.
func convTables(g ConvGeom) (tapOff, posBase []int, sampleLen int) {
	ph, pw := g.InH+2*g.Pad, g.InW+2*g.Pad
	for ic := 0; ic < g.InC; ic++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				tapOff = append(tapOff, (ic*ph+kh)*pw+kw)
			}
		}
	}
	for oy := 0; oy < g.OutH(); oy++ {
		for ox := 0; ox < g.OutW(); ox++ {
			posBase = append(posBase, oy*g.Stride*pw+ox*g.Stride)
		}
	}
	return tapOff, posBase, g.InC * ph * pw
}

// uniform32 returns n float32 values in (-1, 1).
func uniform32(rng *RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.Float64()*2 - 1)
	}
	return v
}

// sameBits32 and sameBits64 compare element by element, two NaNs equal
// whatever their payloads.
func sameBits32(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s element %d: %v (%#x), twin %v (%#x)", what, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

func sameBits64(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s element %d: %v (%#x), twin %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// TestConvKernelsMatchTwins holds each Winograd kernel to its Go twin
// over the planes the layout takes — rows a multiple of eight wide
// (second tile pair to the right) and of four (second pair below), one
// and several quads a sample — input and output channels 1–17 each (the
// eight-channel weight-gradient blocks, a moved-back last one, and counts
// under a block, which run the twins), batches 1–3 (an odd quad count
// repeats the last quad in a group's high half), on uniform operands and
// with NaN, ±Inf and −0 planted in the input, the filters and the output
// gradient. Every element must match bit for bit, with one exception:
// where two NaNs meet in a multiply or an add, which payload survives
// follows the operand order the Go compiler picks for the twin's
// commutative operation, so two NaNs compare equal whatever their
// payloads. The AVX2 kernels' payloads are pinned instead, with every
// other bit, by the hash of the shapes they run.
func TestConvKernelsMatchTwins(t *testing.T) {
	rng := NewRNG(41)
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), negZero}
	sweep := sha256.New()
	vector := 0
	for _, pl := range [][2]int{{8, 8}, {4, 4}, {2, 8}, {8, 4}, {4, 12}, {6, 16}} {
		for inC := 1; inC <= 17; inC++ {
			for outC := 1; outC <= 17; outC++ {
				g := ConvGeom{InC: inC, InH: pl[0], InW: pl[1], KH: 3, KW: 3, Stride: 1, Pad: 1}
				p, q := NewWinograd(g, outC), NewWinograd(g, outC)
				if p == nil {
					t.Fatalf("%+v: no Winograd plan", g)
				}
				if p.Vector() {
					vector++
				}
				ph, pw := g.InH+2, g.InW+2
				for _, batch := range []int{1, 2, 3} {
					for _, special := range []bool{false, true} {
						what := fmt.Sprintf("%+v outC=%d batch=%d special=%v", g, outC, batch, special)
						// Padded operands: random interiors, zero borders.
						padded := func(planes int) []float32 {
							v := make([]float32, planes*ph*pw)
							for i := 0; i < planes; i++ {
								for y := 1; y <= g.InH; y++ {
									row := v[(i*ph+y)*pw+1 : (i*ph+y)*pw+1+g.InW]
									copy(row, uniform32(rng, g.InW))
									if special && rng.Intn(4) == 0 {
										row[rng.Intn(len(row))] = specials[rng.Intn(len(specials))]
									}
								}
							}
							return v
						}
						in, dy := padded(batch*inC), padded(batch*outC)
						w := rng.Uniform(-1, 1, outC*inC*9).Data
						bias := rng.Uniform(-1, 1, outC).Data
						if special {
							w[rng.Intn(len(w))] = math.Inf(1)
							w[rng.Intn(len(w))] = math.Copysign(0, -1)
							bias[rng.Intn(outC)] = math.Copysign(0, -1)
						}
						p.SetWeights(w)
						q.SetWeights(w)

						out, outGo := make([]float64, batch*outC*g.InH*g.InW), make([]float64, batch*outC*g.InH*g.InW)
						p.Forward(out, in, bias, batch)
						q.ForwardGo(outGo, in, bias, batch)
						sameBits64(t, what+" forward", out, outGo)

						// The gradients are added to: start both from the same values.
						dW, dB := rng.Uniform(-1, 1, outC*inC*9).Data, rng.Uniform(-1, 1, outC).Data
						dWGo, dBGo := append([]float64(nil), dW...), append([]float64(nil), dB...)
						p.GradParams(dW, dB, dy, batch)
						q.GradParamsGo(dWGo, dBGo, dy, batch)
						sameBits64(t, what+" dW", dW, dWGo)
						sameBits64(t, what+" dB", dB, dBGo)

						dx, dxGo := make([]float64, batch*inC*g.InH*g.InW), make([]float64, batch*inC*g.InH*g.InW)
						p.GradInput(dx, dy, batch)
						q.GradInputGo(dxGo, dy, batch)
						sameBits64(t, what+" input grad", dx, dxGo)

						if !p.Vector() {
							continue
						}
						for _, v := range out {
							binary.Write(sweep, binary.LittleEndian, math.Float64bits(v))
						}
						for _, v := range append(dW, dB...) {
							binary.Write(sweep, binary.LittleEndian, math.Float64bits(v))
						}
						for _, v := range dx {
							binary.Write(sweep, binary.LittleEndian, math.Float64bits(v))
						}
					}
				}
			}
		}
	}
	if CurrentBackend().Name() == "avx2" {
		if vector < 200 {
			t.Fatalf("only %d shapes take the vector kernels", vector)
		}
		if got := fmt.Sprintf("%x", sweep.Sum(nil)); got != convSweepAVX2 {
			t.Fatalf("AVX2 sweep hash %s, want %s", got, convSweepAVX2)
		}
	}
}

// convSweepAVX2 is the hash of TestConvKernelsMatchTwins's results on
// the shapes the AVX2 kernels take, NaN payloads included.
const convSweepAVX2 = "b3fab96489b2405acfaee5d81a0e3486587b1af744d89de6701c6d2dd3a4b790"

// TestConvDirectRejectsUncheckedTables: the wrappers are the only bounds
// check the kernels get, so a table that reaches past the padded sample,
// a short operand or a weight matrix of the wrong size must all panic in
// Go — and so must a Winograd plan handed a short operand, filters of
// another size, or gradients for a batch its last Forward did not run.
// (The kernels' arithmetic is pinned against the twins by
// TestConvKernelsMatchTwins, and nn bounds the layer against a float64
// lowering: TestConvMatchesFloat64Reference.)
func TestConvDirectRejectsUncheckedTables(t *testing.T) {
	const batch, sampleLen, outC, spatial, taps = 2, 16, 3, 4, 2
	in := make([]float32, batch*sampleLen)
	dpad := make([]float64, batch*sampleLen)
	tapOff, posBase := []int{0, 1}, []int{0, 1, 4, 5}
	w := make([]float32, taps*outC)
	bias := make([]float64, outC)
	out := make([]float64, batch*outC*spatial)
	sums := make([]float32, (taps+1)*outC)
	dy := make([]float32, batch*outC*spatial)
	ConvForward(out, in, w, bias, tapOff, posBase, batch, sampleLen, outC) // the baseline is accepted
	ConvGradParams(sums, in, dy, tapOff, posBase, batch, sampleLen, outC)
	ConvGradInput(dpad, dy, w, tapOff, posBase, batch, sampleLen, outC)

	wg := ConvGeom{InC: 2, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	wino := NewWinograd(wg, 8)
	padded := batch * 6 * 6
	wIn, wDy := make([]float32, 2*padded), make([]float32, 8*padded)
	wOut, wDx := make([]float64, batch*8*16), make([]float64, batch*2*16)
	wW, wBias := make([]float64, 8*2*9), make([]float64, 8)
	wDW, wDB := make([]float64, 8*2*9), make([]float64, 8)
	wino.SetWeights(wW) // the baseline is accepted
	wino.Forward(wOut, wIn, wBias, batch)
	wino.GradParams(wDW, wDB, wDy, batch)
	wino.GradInput(wDx, wDy, batch)

	for _, tc := range []struct {
		name, want string
		call       func()
	}{
		{"tap past the sample", "tables reach", func() {
			ConvForward(out, in, w, bias, []int{0, 11}, posBase, batch, sampleLen, outC)
		}},
		{"position past the sample", "tables reach", func() {
			ConvGradParams(sums, in, dy, tapOff, []int{0, 1, 4, 15}, batch, sampleLen, outC)
		}},
		{"negative offset", "negative", func() {
			ConvForward(out, in, w, bias, []int{-1, 0}, posBase, batch, sampleLen, outC)
		}},
		{"no output channel", "0 channels", func() {
			ConvForward(out, in, w[:0], bias, tapOff, posBase, batch, sampleLen, 0)
		}},
		{"short input", "input has", func() {
			ConvForward(out, in[:len(in)-1], w, bias, tapOff, posBase, batch, sampleLen, outC)
		}},
		{"short output", "output has", func() {
			ConvForward(out[:len(out)-1], in, w, bias, tapOff, posBase, batch, sampleLen, outC)
		}},
		{"short bias", "bias has", func() {
			ConvForward(out, in, w, bias[:outC-1], tapOff, posBase, batch, sampleLen, outC)
		}},
		{"weights of another size", "weights have", func() {
			ConvForward(out, in, make([]float32, taps*outC+1), bias, tapOff, posBase, batch, sampleLen, outC)
		}},
		{"sums without the bias row", "sums have", func() {
			ConvGradParams(make([]float32, taps*outC), in, dy, tapOff, posBase, batch, sampleLen, outC)
		}},
		{"short output gradient", "output gradient has", func() {
			ConvGradParams(sums, in, dy[:len(dy)-1], tapOff, posBase, batch, sampleLen, outC)
		}},
		{"input-gradient tap past the sample", "tables reach", func() {
			ConvGradInput(dpad, dy, w, []int{0, 11}, posBase, batch, sampleLen, outC)
		}},
		{"input-gradient position past the sample", "tables reach", func() {
			ConvGradInput(dpad, dy, w, tapOff, []int{0, 1, 4, 15}, batch, sampleLen, outC)
		}},
		{"short padded gradient", "input has", func() {
			ConvGradInput(dpad[:len(dpad)-1], dy, w, tapOff, posBase, batch, sampleLen, outC)
		}},
		{"input-gradient weights of another size", "weights have", func() {
			ConvGradInput(dpad, dy, w[:len(w)-1], tapOff, posBase, batch, sampleLen, outC)
		}},
		{"short incoming gradient", "output gradient has", func() {
			ConvGradInput(dpad, dy[:len(dy)-1], w, tapOff, posBase, batch, sampleLen, outC)
		}},
		// The Winograd plans are the assembly's only bounds check too.
		{"Winograd short input", "Winograd input has", func() {
			wino.Forward(wOut, wIn[:len(wIn)-1], wBias, batch)
		}},
		{"Winograd short output", "Winograd output has", func() {
			wino.Forward(wOut[:len(wOut)-1], wIn, wBias, batch)
		}},
		{"Winograd short bias", "Winograd bias has", func() {
			wino.Forward(wOut, wIn, wBias[:7], batch)
		}},
		{"Winograd filters of another size", "Winograd weights have", func() {
			wino.SetWeights(wW[:len(wW)-1])
		}},
		{"Winograd gradients after another batch", "the last Forward ran 2", func() {
			wino.GradParams(wDW, wDB, wDy, batch-1)
		}},
		{"Winograd gradients of another size", "Winograd gradients have", func() {
			wino.GradParams(wDW[:len(wDW)-1], wDB, wDy, batch)
		}},
		{"Winograd short output gradient", "Winograd output gradient has", func() {
			wino.GradInput(wDx, wDy[:len(wDy)-1], batch)
		}},
		{"Winograd short input gradient", "Winograd input gradient has", func() {
			wino.GradInput(wDx[:len(wDx)-1], wDy, batch)
		}},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("%s: panic %q, want one mentioning %q", tc.name, msg, tc.want)
				}
			}()
			tc.call()
		}()
	}
}
