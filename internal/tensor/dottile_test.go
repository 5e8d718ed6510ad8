package tensor

import (
	"math"
	"testing"
)

// TestDotTileMatchesScalarStreams holds the dispatched tile (the AVX2
// assembly where the CPU has it) and its scalar twin to a four-stream
// reference written out here: lane l of cell (r, c) is the running sum of
// a[r][p]*b[c][p] over p ≡ l mod 4, ascending, carried from span to span
// and starting from whatever the accumulator held.
func TestDotTileMatchesScalarStreams(t *testing.T) {
	rng := NewRNG(61)
	const n = 64
	vec := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Normal(0, 1)
		}
		return v
	}
	a := [DotTileRows][]float64{vec(), vec()}
	b := [DotTileCols][]float64{vec(), a[0], vec(), vec()} // b[1] aliases a row: a diagonal cell
	a[1][9] = math.Inf(1)
	b[2][30] = math.SmallestNonzeroFloat64
	b[3][5] = math.Copysign(0, -1)

	for name, tile := range map[string]func(*DotTileAcc, *[DotTileRows][]float64, *[DotTileCols][]float64, int, int){
		"DotTile": DotTile, "DotTileGo": DotTileGo,
	} {
		var acc, want DotTileAcc
		for i := range acc {
			acc[i] = float64(i) * 0.125 // a carried-in partial, not zero
			want[i] = acc[i]
		}
		for _, span := range [][2]int{{0, 4}, {4, 0}, {4, 24}, {28, 36}} {
			tile(&acc, &a, &b, span[0], span[1])
			for r := range a {
				for c := range b {
					s := want.Cell(r, c)
					for p := span[0]; p < span[0]+span[1]; p++ {
						s[p%4] += a[r][p] * b[c][p]
					}
				}
			}
			for i := range acc {
				if math.Float64bits(acc[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s after span %v: acc[%d] = %v, streams give %v", name, span, i, acc[i], want[i])
				}
			}
		}
	}
}

// TestDotTileRejectsUncheckedSpans: the wrapper, not the assembly, owns
// the bounds — a span that is not a multiple of 4 or runs past any vector
// panics before a kernel sees it.
func TestDotTileRejectsUncheckedSpans(t *testing.T) {
	long, short := make([]float64, 16), make([]float64, 12)
	for name, call := range map[string]func(){
		"n%4 != 0": func() {
			DotTile(new(DotTileAcc), &[2][]float64{long, long}, &[4][]float64{long, long, long, long}, 0, 6)
		},
		"negative c0": func() {
			DotTile(new(DotTileAcc), &[2][]float64{long, long}, &[4][]float64{long, long, long, long}, -4, 8)
		},
		"short row": func() {
			DotTile(new(DotTileAcc), &[2][]float64{long, short}, &[4][]float64{long, long, long, long}, 8, 8)
		},
		"short column": func() {
			DotTileGo(new(DotTileAcc), &[2][]float64{long, long}, &[4][]float64{long, long, short, long}, 0, 16)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected a panic", name)
				}
			}()
			call()
		}()
	}
}
