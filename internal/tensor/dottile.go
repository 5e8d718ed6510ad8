package tensor

import "fmt"

// The dot tile is the register-blocked primitive behind core's K×K Gram
// pass. One call advances the partial sums of a DotTileRows×DotTileCols
// block of inner products over a column span — eight independent
// accumulation chains in flight, where a lone dot product has one and
// waits out the add latency on every step.
//
// It is a platform-dispatched package function like reluForward and
// maxPool2x2Plane, not a Backend method: a new method would break every
// Backend implemented outside this package, and the tile is no layer
// kernel — nothing under a Net calls it, so a swapped-in backend has
// nothing to say about it.
const (
	// DotTileRows and DotTileCols are the tile's shape in vectors.
	DotTileRows = 2
	DotTileCols = 4
	// dotTileLanes is the number of partial-sum streams per cell: lane l
	// takes the indices ≡ l mod 4, the four-stream order of
	// nn.ParamVector.Dot.
	dotTileLanes = 4
)

// DotTileAcc holds one tile's partial sums: lane l of cell (r, c) lives
// at index (r*DotTileCols+c)*4 + l.
type DotTileAcc [DotTileRows * DotTileCols * dotTileLanes]float64

// Cell returns the four lane partials of cell (r, c).
func (acc *DotTileAcc) Cell(r, c int) *[dotTileLanes]float64 {
	return (*[dotTileLanes]float64)(acc[(r*DotTileCols+c)*dotTileLanes:])
}

// DotTile advances every cell of the tile over the span [c0, c0+n):
//
//	acc.Cell(r, c)[l] += a[r][p+l] * b[c][p+l]   for p = c0, c0+4, … < c0+n
//
// in ascending p, one multiply then one add per step and no fused
// multiply-add — per lane, exactly the operation sequence of one stream of
// nn.ParamVector.Dot. Calling it over consecutive spans therefore carries
// each stream across the spans unchanged. n must be a multiple of 4 and
// every vector at least c0+n long.
func DotTile(acc *DotTileAcc, a *[DotTileRows][]float64, b *[DotTileCols][]float64, c0, n int) {
	checkDotTile(a, b, c0, n)
	dotTile(acc, a, b, c0, n)
}

// DotTileGo is DotTile on the portable scalar kernel — what DotTile runs
// without AVX2, off amd64 and under purego, and the twin the tests hold
// the assembly to.
func DotTileGo(acc *DotTileAcc, a *[DotTileRows][]float64, b *[DotTileCols][]float64, c0, n int) {
	checkDotTile(a, b, c0, n)
	dotTileGo(acc, a, b, c0, n)
}

// checkDotTile is the only length check the kernels get: the assembly
// never sees a span it was not cleared for.
func checkDotTile(a *[DotTileRows][]float64, b *[DotTileCols][]float64, c0, n int) {
	if c0 < 0 || n < 0 || n%dotTileLanes != 0 {
		panic(fmt.Sprintf("tensor: DotTile span [%d, %d+%d) must be non-negative with a length divisible by %d", c0, c0, n, dotTileLanes))
	}
	for _, v := range a {
		if len(v) < c0+n {
			panic(fmt.Sprintf("tensor: DotTile row vector length %d, span ends at %d", len(v), c0+n))
		}
	}
	for _, v := range b {
		if len(v) < c0+n {
			panic(fmt.Sprintf("tensor: DotTile column vector length %d, span ends at %d", len(v), c0+n))
		}
	}
}

func dotTileGo(acc *DotTileAcc, a *[DotTileRows][]float64, b *[DotTileCols][]float64, c0, n int) {
	for r := range a {
		ar := a[r][c0 : c0+n]
		for c := range b {
			bc := b[c][c0 : c0+n]
			s := acc.Cell(r, c)
			s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
			for p := 0; p+4 <= len(ar) && p+4 <= len(bc); p += 4 {
				s0 += ar[p] * bc[p]
				s1 += ar[p+1] * bc[p+1]
				s2 += ar[p+2] * bc[p+2]
				s3 += ar[p+3] * bc[p+3]
			}
			s[0], s[1], s[2], s[3] = s0, s1, s2, s3
		}
	}
}
