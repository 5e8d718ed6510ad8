package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"fedcross/internal/fl"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// gramUploads builds a pathological upload list: random vectors plus a
// zero vector (zero-norm edge) and a NaN-poisoned one, with an odd length
// so the kernels' unrolled remainder path runs.
func gramUploads() []nn.ParamVector {
	rng := tensor.NewRNG(7)
	const k, n = 6, 37
	w := make([]nn.ParamVector, k)
	for i := range w {
		w[i] = make(nn.ParamVector, n)
		for j := range w[i] {
			w[i][j] = rng.Normal(0, 1)
		}
	}
	for j := range w[2] {
		w[2][j] = 0 // zero-norm upload
	}
	w[4][13] = math.NaN() // corrupted upload
	return w
}

// TestSimMatrixMatchesNaive pins the Gram pass's exactness contract: for
// every measure, worker count and cell, the cached matrix equals the
// naive pairwise call — including the zero-norm and NaN edge cases — and
// matrix-based selection equals the naive CoModelSel loop for all three
// strategies.
func TestSimMatrixMatchesNaive(t *testing.T) {
	w := gramUploads()
	k := len(w)
	for _, meas := range []Measure{CosineMeasure(), PaperMeasure(), EuclideanMeasure()} {
		for _, workers := range []int{1, 4} {
			m := NewSimMatrix(w, meas, fl.Limit(workers))
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					if i == j {
						continue
					}
					want := meas.Pair(w[i], w[j])
					got := m.At(i, j)
					if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Fatalf("%s workers=%d cell (%d,%d): matrix %v, naive %v",
							meas.Name, workers, i, j, got, want)
					}
				}
			}
			for r := 0; r < 2*k; r++ {
				for i := 0; i < k; i++ {
					for _, s := range []Strategy{InOrder, HighestSimilarity, LowestSimilarity} {
						naive := CoModelSel(s, i, r, w, meas.Pair)
						if got := CoModelSelMatrix(s, i, r, m); got != naive {
							t.Fatalf("%s workers=%d strategy %v r=%d i=%d: matrix picked %d, naive %d",
								meas.Name, workers, s, r, i, got, naive)
						}
					}
				}
			}
		}
	}
}

// TestSimMatrixDefaultsToCosine mirrors CoModelSel's nil-similarity
// default: a zero-valued Measure scores with cosine.
func TestSimMatrixDefaultsToCosine(t *testing.T) {
	w := gramUploads()
	m := NewSimMatrix(w, Measure{}, fl.Limit(2))
	if got, want := m.At(0, 1), CosineSimilarity(w[0], w[1]); got != want {
		t.Fatalf("default measure: got %v, want cosine %v", got, want)
	}
}

// TestSimMatrixCustomAsymmetric pins the fallback path's ordered-pair
// exactness: a measure without FromDot — even an asymmetric one — must
// fill every directed cell with its own Pair call.
func TestSimMatrixCustomAsymmetric(t *testing.T) {
	w := gramUploads()
	asym := Measure{Name: "first-coord", Pair: func(a, b nn.ParamVector) float64 {
		return a[0] - 2*b[0]
	}}
	m := NewSimMatrix(w, asym, fl.Limit(3))
	for i := range w {
		for j := range w {
			if i == j {
				continue
			}
			if got, want := m.At(i, j), asym.Pair(w[i], w[j]); got != want {
				t.Fatalf("asymmetric cell (%d,%d): got %v, want %v", i, j, got, want)
			}
		}
	}
}

// TestPairlessMeasureRejected guards against a partially built Measure
// (FromDot or Name without Pair) being silently rescored with cosine.
func TestPairlessMeasureRejected(t *testing.T) {
	opts := DefaultOptions()
	opts.Similarity = Measure{Name: "mysim", FromDot: func(dot, aa, bb float64) float64 { return dot }}
	if _, err := New(opts); err == nil {
		t.Fatal("expected New to reject a measure without Pair")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected NewSimMatrix to panic on a measure without Pair")
		}
	}()
	NewSimMatrix(gramUploads(), Measure{Name: "mysim"}, fl.Limit(1))
}

// gramTileUploads builds k uploads of n parameters that exercise every
// value class the kernels can meet: normal draws, a zero vector, −0,
// denormals and vectors carrying NaN and ±Inf.
func gramTileUploads(k, n int) []nn.ParamVector {
	rng := tensor.NewRNG(int64(1000*k + n))
	w := make([]nn.ParamVector, k)
	for i := range w {
		w[i] = make(nn.ParamVector, n)
		for j := range w[i] {
			w[i][j] = rng.Normal(0, 1)
		}
	}
	for j := range w[1] {
		w[1][j] = 0
	}
	if n == 0 {
		return w
	}
	w[0][n/2] = math.Copysign(0, -1)
	w[0][n-1] = math.SmallestNonzeroFloat64
	w[k-1][0] = -3 * math.SmallestNonzeroFloat64
	if k > 3 {
		w[2][n-1] = math.NaN()
		w[3][n/3] = math.Inf(1)
		w[k-2][2*n/3] = math.Inf(-1)
	}
	return w
}

// TestGramTileMatchesDot pins the tiled Gram pass to the kernel it
// replaced: every off-diagonal cell carries the bits of w[i].Dot(w[j])
// and every diagonal cell those of NormSq(), across ragged K (tile edges),
// lengths around the 4-lane and chunk boundaries, and worker counts — for
// the dispatched kernel and, always, for its scalar twin.
func TestGramTileMatchesDot(t *testing.T) {
	kernels := []struct {
		name string
		tile dotTileFunc
	}{{"dispatched", tensor.DotTile}, {"scalar", tensor.DotTileGo}}
	check := func(k, n int, workers []int) {
		w := gramTileUploads(k, n)
		for _, kern := range kernels {
			for _, wk := range workers {
				dst := make([]float64, k*k)
				gramInto(dst, w, fl.Limit(wk), kern.tile)
				for i := 0; i < k; i++ {
					for j := i; j < k; j++ {
						want := w[i].Dot(w[j])
						if i == j {
							want = w[i].NormSq()
						}
						got := dst[i*k+j]
						if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
							t.Fatalf("%s K=%d n=%d workers=%d cell (%d,%d): tile %v (%#x), Dot %v (%#x)",
								kern.name, k, n, wk, i, j, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
	for _, k := range []int{2, 3, 4, 5, 7, 8, 9, 10, 64, 65} {
		for _, n := range []int{0, 1, 3, 4, 5, 7, 1020, 1023, 1024, 1025, 2049, 4099} {
			check(k, n, []int{1, 2, 8})
		}
	}
	check(10, 51978, []int{2}) // the paper's K at server_heavy_k64's length: eight chunks and a tail
}

// TestGramTilesCoverUpperTriangle pins the tile enumeration: over all
// tiles, cells yields every unordered pair and every diagonal cell exactly
// once, and nothing else.
func TestGramTilesCoverUpperTriangle(t *testing.T) {
	for k := 2; k <= 70; k++ {
		seen := make([]int, k*k)
		for _, tl := range gramTiles(k) {
			if tl.r%tensor.DotTileRows != 0 || tl.c%tensor.DotTileCols != 0 {
				t.Fatalf("k=%d: tile (%d,%d) off the tile grid", k, tl.r, tl.c)
			}
			tl.cells(k, func(dr, dc, i, j int) {
				if i != tl.r+dr || j != tl.c+dc || i < 0 || j >= k || i > j {
					t.Fatalf("k=%d tile (%d,%d): slot (%d,%d) yielded cell (%d,%d)", k, tl.r, tl.c, dr, dc, i, j)
				}
				seen[i*k+j]++
			})
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				want := 0
				if i <= j {
					want = 1
				}
				if seen[i*k+j] != want {
					t.Fatalf("k=%d: cell (%d,%d) produced %d times, want %d", k, i, j, seen[i*k+j], want)
				}
			}
		}
	}
}

// TestSimMatrixRaggedLengthsPanic: uploads of unequal length are a
// caller bug, reported by length like nn.ParamVector.Dot reports it.
func TestSimMatrixRaggedLengthsPanic(t *testing.T) {
	w := gramUploads()
	w[3] = w[3][:len(w[3])-1]
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "length mismatch") {
			t.Fatalf("expected a length-mismatch panic, got %q", msg)
		}
	}()
	NewSimMatrix(w, CosineMeasure(), fl.Limit(2))
}
