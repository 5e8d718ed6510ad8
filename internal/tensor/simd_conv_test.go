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

// TestConvKernelsMatchTwins holds each dispatched conv kernel to its
// float32 twin over an edge sweep: input channels 1–4, 1×1 and 3×3
// kernels, stride 1 and 2, padding 0 and 1, planes whose output rows are
// or are not a multiple of four or eight wide (the vector kernels take
// only runs of four consecutive positions, sixteen positions at a time),
// output channels 1–17 (the eight-channel blocks, a moved-back last one,
// and counts below a block that the twin takes), batches 1–3. Each shape
// runs twice: on uniform operands, and with a NaN, ±Inf and −0 planted in
// the input, the weights and the output gradient, and −0 in the bias.
// Every element must match bit for bit, with one exception: where two
// NaNs meet in a multiply or an add, which payload survives follows the
// operand order the Go compiler picks for the twin's commutative
// operation, so two NaNs compare equal whatever their payloads. The AVX2
// kernels' payloads are pinned instead, with every other bit, by the hash
// of the shapes they run.
func TestConvKernelsMatchTwins(t *testing.T) {
	rng := NewRNG(23)
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), negZero}
	plant := func(v []float32) {
		for _, s := range specials {
			v[rng.Intn(len(v))] = s
		}
	}
	sweep := sha256.New()
	vector := 0
	for _, inC := range []int{1, 2, 3, 4} {
		for _, k := range []int{1, 3} {
			for _, stride := range []int{1, 2} {
				for _, pad := range []int{0, 1} {
					for _, pl := range [][2]int{{4, 4}, {5, 5}, {6, 6}, {8, 4}, {4, 8}, {7, 3}, {8, 8}, {10, 6}, {6, 10}, {12, 4}} {
						g := ConvGeom{InC: inC, InH: pl[0], InW: pl[1], KH: k, KW: k, Stride: stride, Pad: pad}
						if g.Validate() != nil {
							continue
						}
						tapOff, posBase, sampleLen := convTables(g)
						taps, spatial := len(tapOff), len(posBase)
						for outC := 1; outC <= 17; outC++ {
							isVector := convVector(posBase, outC)
							if isVector {
								vector++
							}
							batch := 1 + (outC+inC)%3
							for _, special := range []bool{false, true} {
								what := fmt.Sprintf("%+v outC=%d batch=%d special=%v", g, outC, batch, special)
								in := uniform32(rng, batch*sampleLen)
								w := uniform32(rng, taps*outC)
								dy := uniform32(rng, batch*outC*spatial)
								bias := rng.Uniform(-1, 1, outC).Data
								if special {
									plant(in)
									plant(w)
									plant(dy)
									bias[rng.Intn(outC)] = math.Copysign(0, -1)
								}

								out, outGo := make([]float64, batch*outC*spatial), make([]float64, batch*outC*spatial)
								ConvForward(out, in, w, bias, tapOff, posBase, batch, sampleLen, outC)
								ConvForwardGo(outGo, in, w, bias, tapOff, posBase, batch, sampleLen, outC)
								sameBits64(t, what+" forward", out, outGo)

								sums, sumsGo := make([]float32, (taps+1)*outC), make([]float32, (taps+1)*outC)
								ConvGradParams(sums, in, dy, tapOff, posBase, batch, sampleLen, outC)
								ConvGradParamsGo(sumsGo, in, dy, tapOff, posBase, batch, sampleLen, outC)
								sameBits32(t, what+" grad sums", sums, sumsGo)

								// The input gradient zeroes what it writes: start both
								// from garbage.
								dpad, dpadGo := rng.Uniform(-1, 1, batch*sampleLen).Data, make([]float64, batch*sampleLen)
								copy(dpadGo, dpad)
								ConvGradInput(dpad, dy, w, tapOff, posBase, batch, sampleLen, outC)
								ConvGradInputGo(dpadGo, dy, w, tapOff, posBase, batch, sampleLen, outC)
								sameBits64(t, what+" input grad", dpad, dpadGo)

								if !isVector {
									continue
								}
								for _, v := range out {
									binary.Write(sweep, binary.LittleEndian, math.Float64bits(v))
								}
								for _, v := range sums {
									binary.Write(sweep, binary.LittleEndian, math.Float32bits(v))
								}
								for _, v := range dpad {
									binary.Write(sweep, binary.LittleEndian, math.Float64bits(v))
								}
							}
						}
					}
				}
			}
		}
	}
	if vector < 100 {
		t.Fatalf("only %d shapes take the vector kernels", vector)
	}
	if CurrentBackend().Name() == "avx2" {
		if got := fmt.Sprintf("%x", sweep.Sum(nil)); got != convSweepAVX2 {
			t.Fatalf("AVX2 sweep hash %s, want %s", got, convSweepAVX2)
		}
	}
}

// convSweepAVX2 is the hash of TestConvKernelsMatchTwins's results on the
// shapes the AVX2 kernels take, NaN payloads included.
const convSweepAVX2 = "c8a7175e4e22f4e862de9a8d42d34ddbad3f8955e59f4614b688e31ef757476f"

// TestConvDirectRejectsUncheckedTables: the wrappers are the only bounds
// check the assembly gets, so a table that reaches past the padded
// sample, a short operand or a weight matrix of the wrong size must all
// panic in Go. (The kernels' arithmetic is pinned against the twins by
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
			ConvForwardGo(out, in, w[:0], bias, tapOff, posBase, batch, sampleLen, 0)
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
			ConvGradParamsGo(make([]float32, taps*outC), in, dy, tapOff, posBase, batch, sampleLen, outC)
		}},
		{"short output gradient", "output gradient has", func() {
			ConvGradParams(sums, in, dy[:len(dy)-1], tapOff, posBase, batch, sampleLen, outC)
		}},
		{"input-gradient tap past the sample", "tables reach", func() {
			ConvGradInput(dpad, dy, w, []int{0, 11}, posBase, batch, sampleLen, outC)
		}},
		{"input-gradient position past the sample", "tables reach", func() {
			ConvGradInputGo(dpad, dy, w, tapOff, []int{0, 1, 4, 15}, batch, sampleLen, outC)
		}},
		{"short padded gradient", "input has", func() {
			ConvGradInput(dpad[:len(dpad)-1], dy, w, tapOff, posBase, batch, sampleLen, outC)
		}},
		{"input-gradient weights of another size", "weights have", func() {
			ConvGradInput(dpad, dy, w[:len(w)-1], tapOff, posBase, batch, sampleLen, outC)
		}},
		{"short incoming gradient", "output gradient has", func() {
			ConvGradInputGo(dpad, dy[:len(dy)-1], w, tapOff, posBase, batch, sampleLen, outC)
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
