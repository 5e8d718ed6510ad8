package core

import (
	"fmt"

	"fedcross/internal/fl"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// SimMatrix caches the K×K pairwise similarity scores of one round's
// uploads, so CoModelSel's per-model scans read precomputed cells instead
// of re-walking full parameter vectors — Algorithm 1 consults the scores
// K times per round, and the naive loop recomputed every pair twice.
//
// Invalidation rule: a SimMatrix (and the per-upload norm cache built
// while filling it) is valid only for the exact upload list it was built
// from. Uploads are frozen between training and aggregation, so FedCross
// builds the matrix once per round inside aggregate and drops it before
// anything can mutate a vector; holding one across rounds is a bug.
type SimMatrix struct {
	// K is the number of uploads.
	K int
	// s is the row-major K×K score matrix; the diagonal is unused (a
	// model never collaborates with itself).
	s []float64
}

// At returns the similarity of uploads i and j.
func (m *SimMatrix) At(i, j int) float64 { return m.s[i*m.K+j] }

// NewSimMatrix scores every pair of uploads under measure m, in parallel
// across the allowance wk (fl.Workers{} means every core, unbudgeted; a
// budget leases the fan-out from the pool shared with concurrent runs).
// For measures with a FromDot form the K squared norms and the K(K−1)/2
// inner products come out of one tiled Gram pass (gramInto), and FromDot
// turns each unordered pair's three numbers into its score — cells are
// bit-identical to m.Pair, because every Gram cell is bit-identical to
// nn.ParamVector.Dot. Measures without FromDot are scored with m.Pair per
// ordered pair, preserving exactness for asymmetric custom measures.
// Every cell is a pure function of its pair, so the result is independent
// of workers and scheduling. Uploads of unequal length panic.
func NewSimMatrix(w []nn.ParamVector, m Measure, wk fl.Workers) *SimMatrix {
	return new(gramScratch).simMatrix(w, m, wk)
}

// gramScratch is what NewSimMatrix builds and drops every call, kept by
// FedCross across rounds instead: the tile list, a function of K alone,
// and the K×K score buffer. Each pass rewrites every cell it returns and
// restarts every tile's partials, and clears the tiles' operand slices
// when it is done, so the scratch holds on to no round's vectors; the
// SimMatrix it returns is its own, valid until the next pass.
type gramScratch struct {
	tiles []gramTile
	m     SimMatrix
}

// simMatrix is NewSimMatrix on the scratch's storage.
func (g *gramScratch) simMatrix(w []nn.ParamVector, m Measure, wk fl.Workers) *SimMatrix {
	k := len(w)
	if k < 2 {
		panic(fmt.Sprintf("core: NewSimMatrix requires at least 2 models, got %d", k))
	}
	norm, err := m.normalize()
	if err != nil {
		panic(err.Error())
	}
	m = norm
	if g.m.K != k {
		g.m = SimMatrix{K: k, s: make([]float64, k*k)}
		g.tiles = gramTiles(k)
	}
	sm := &g.m
	if m.FromDot != nil {
		gramInto(sm.s, g.tiles, w, wk, tensor.DotTile)
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				s := m.FromDot(sm.s[i*k+j], sm.s[i*k+i], sm.s[j*k+j])
				sm.s[i*k+j], sm.s[j*k+i] = s, s
			}
			sm.s[i*k+i] = 0 // no later row reads norm i; the diagonal reads 0
		}
		return sm
	}
	fl.ParallelForW(k*k, wk, func(p int) {
		i, j := p/k, p%k
		if i != j {
			sm.s[p] = m.Pair(w[i], w[j])
		} else {
			sm.s[p] = 0
		}
	})
	return sm
}

const (
	// gramPanelBytes budgets the K×chunk column panel the tiles of one
	// chunk read (1,024 columns at K=64), so a worker finds its operands
	// in L2 instead of streaming every vector from memory once per tile.
	gramPanelBytes = 512 << 10
	// gramGroups is how many contiguous runs the tile list is cut into for
	// each chunk's fan-out — fixed, not derived from the worker count.
	gramGroups = 32
)

// dotTileFunc is the signature tensor.DotTile and tensor.DotTileGo share.
type dotTileFunc = func(acc *tensor.DotTileAcc, a *[tensor.DotTileRows][]float64, b *[tensor.DotTileCols][]float64, c0, n int)

// gramTile is one DotTileRows×DotTileCols block of the Gram matrix: rows
// r, r+1 against columns c … c+3, with its operand vectors and the lane
// partials carried across column chunks.
type gramTile struct {
	r, c int
	a    [tensor.DotTileRows][]float64
	b    [tensor.DotTileCols][]float64
	acc  tensor.DotTileAcc
}

// gramTiles enumerates the tiles that touch the upper triangle of a K×K
// matrix, diagonal included: row blocks in steps of DotTileRows, and per
// row block the column blocks from the one holding the diagonal rightward.
// The tiles are disjoint and cover the matrix's upper triangle, so each
// cell (i, j) with i ≤ j lies in exactly one (see cells).
func gramTiles(k int) []gramTile {
	var tiles []gramTile
	for r := 0; r < k; r += tensor.DotTileRows {
		for c := r - r%tensor.DotTileCols; c < k; c += tensor.DotTileCols {
			tiles = append(tiles, gramTile{r: r, c: c})
		}
	}
	return tiles
}

// cells calls fn(dr, dc, i, j) for every cell the tile contributes: slot
// (dr, dc) holds pair (i, j) = (r+dr, c+dc), kept when i ≤ j < k. Slots
// below the diagonal duplicate a cell another tile owns, and slots past
// the ragged edge were fed a repeat of the last vector; both are dropped.
func (t *gramTile) cells(k int, fn func(dr, dc, i, j int)) {
	for dr := 0; dr < tensor.DotTileRows; dr++ {
		for dc := 0; dc < tensor.DotTileCols; dc++ {
			if i, j := t.r+dr, t.c+dc; i <= j && j < k {
				fn(dr, dc, i, j)
			}
		}
	}
}

// gramInto fills dst[i*k+j], i ≤ j, with the inner product of uploads i
// and j — the diagonal with the squared norms — each bit-identical to
// w[i].Dot(w[j]). Three facts make it exact. A tile lane is a Dot stream:
// lane l of a cell accumulates the indices ≡ l mod 4 in ascending order,
// one multiply and one add each. The partials are carried across column
// chunks, so chunking never restarts or reorders a stream. And the finish
// is Dot's: the n%4 tail rides lane 0, then (s0+s1)+(s2+s3).
// TestGramTileMatchesDot pins all three against Dot.
//
// Columns are walked in chunks sized so the K×chunk panel is about
// gramPanelBytes, and each chunk fans its tiles out in gramGroups runs:
// whichever tiles a worker draws, their operands are the one panel its
// cache already holds. (Fanning out once, each run walking all chunks,
// would stream every run's vectors from memory again — at 32 runs and
// K=64 that nearly doubles the pass.) Ragged tiles — K not a multiple of the
// tile shape — repeat the last upload in the missing slots and drop those
// cells, so there is one kernel and no edge path. Entries below the
// diagonal are left untouched. tiles is gramTiles(K), reused: every
// tile's partials restart here, and its operand slices are cleared on the
// way out. tile is tensor.DotTile; the tests also run its scalar twin.
func gramInto(dst []float64, tiles []gramTile, w []nn.ParamVector, wk fl.Workers, tile dotTileFunc) {
	k := len(w)
	n := len(w[0])
	for i, v := range w {
		if len(v) != n {
			panic(fmt.Sprintf("core: NewSimMatrix length mismatch: upload %d has %d parameters, upload 0 has %d", i, len(v), n))
		}
	}
	for t := range tiles {
		tl := &tiles[t]
		tl.acc = tensor.DotTileAcc{}
		for dr := range tl.a {
			tl.a[dr] = w[min(tl.r+dr, k-1)]
		}
		for dc := range tl.b {
			tl.b[dc] = w[min(tl.c+dc, k-1)]
		}
	}
	body := n - n%4
	chunk := max(4, gramPanelBytes/(8*k)&^3)
	groups := min(gramGroups, len(tiles))
	for c0 := 0; c0 < body; c0 += chunk {
		span := min(chunk, body-c0)
		fl.ParallelForW(groups, wk, func(g int) {
			group := tiles[g*len(tiles)/groups : (g+1)*len(tiles)/groups]
			for t := range group {
				tile(&group[t].acc, &group[t].a, &group[t].b, c0, span)
			}
		})
	}
	for t := range tiles {
		tl := &tiles[t]
		tl.cells(k, func(dr, dc, i, j int) {
			s := tl.acc.Cell(dr, dc)
			s0 := s[0]
			for p := body; p < n; p++ {
				s0 += w[i][p] * w[j][p]
			}
			dst[i*k+j] = (s0 + s[1]) + (s[2] + s[3])
		})
		tl.a, tl.b = [tensor.DotTileRows][]float64{}, [tensor.DotTileCols][]float64{}
	}
}

// CoModelSelMatrix is CoModelSel reading scores from a precomputed
// similarity matrix. The scan order and tie-breaking (first best in
// ascending j) are identical to the naive loop, so given a matrix whose
// cells equal the pairwise scores, the selection is identical too —
// including NaN cells, which can never displace an earlier best.
func CoModelSelMatrix(strategy Strategy, i, r int, m *SimMatrix) int {
	k := m.K
	if i < 0 || i >= k {
		panic(fmt.Sprintf("core: CoModelSelMatrix index %d out of range [0,%d)", i, k))
	}
	switch strategy {
	case InOrder:
		return (i + (r%(k-1) + 1)) % k
	case HighestSimilarity, LowestSimilarity:
		best := -1
		var bestScore float64
		for j := 0; j < k; j++ {
			if j == i {
				continue
			}
			s := m.At(i, j)
			if best == -1 ||
				(strategy == HighestSimilarity && s > bestScore) ||
				(strategy == LowestSimilarity && s < bestScore) {
				best, bestScore = j, s
			}
		}
		return best
	default:
		panic(fmt.Sprintf("core: unknown strategy %v", strategy))
	}
}
