package tensor

// Generator kernels: the Gamma draws under RNG.DirichletInto,
// platform-dispatched like the wire kernels. Off amd64, under purego and
// without AVX2 they run one at a time (gammaRunGo), as DirichletIntoGo
// draws them; the tests hold the assembly to it.
//
// Dir(β) in lanes. A Marsaglia–Tsang draw of Gamma(α) on its fast path
// reads a fixed number of words — u (the boost, below shape 1), one
// ziggurat fast-path normal, w — and at β = 0.5 about 89 % of draws stay
// on it. So the kernel takes four draws per step straight from the ring,
// speculatively: lane L reads the words draw L would read if every draw
// before it stays on the fast path, and the step keeps the lanes before
// the first one that leaves it. The draws of the kept lanes, and only
// theirs, are then made (written to the ring); the draw that left runs
// the scalar gamma from its own first word, and the lanes resume after
// it. Reading a step's words without making its draws is exact because
// a draw reads a word written 273 draws earlier or 334 later, never one
// of a step's twelve. A lane is on the fast path when all of these hold,
// each computed as gamma computes it — the same products and sums in the
// same order, no FMA, float64(Int63) as float64(hi)·2^32 + float64(lo)
// with its one rounding:
//   - u's Int63 is not 0 and float64(u) < 1 (no redraw);
//   - |j| < kn[j & 0x7F] as unsigned, so j = −2^31 is not a hit;
//   - v = 1 + c·x > 0;
//   - w < 1 − 0.0331·x·x·x·x (the squeeze; the log test is scalar).
// The lanes cover α ≥ 1 (no boost) and 1/α == 2 (boost u·u); any other
// α < 1 boosts with math.Pow and keeps the scalar body. The normalising
// division runs in lanes too (VDIVPD is correctly rounded) after the
// serial sum. TestDirichletLanesMatchScalar plants every way off the fast
// path at every lane position against DirichletIntoGo.

// gammaWords returns the words a fast-path Gamma(alpha) draw reads — 2
// for α ≥ 1, 3 when the boost is u·u — or 0 when the shape has no lanes.
func gammaWords(alpha float64) int {
	switch {
	case alpha >= 1:
		return 2
	case alpha > 0 && 1/alpha == 2:
		return 3
	}
	return 0
}

// gammaRunGo draws len(p) Gamma(alpha) variates into p one at a time,
// adds each to sum in index order and returns the sum; when rec is not
// nil, rec[i] is the stream position draw i starts from. It is gammaRun
// off amd64, under purego and without AVX2.
func (g *RNG) gammaRunGo(p []float64, alpha, d, c, sum float64, rec []uint64) float64 {
	for i := range p {
		if rec != nil {
			rec[i] = g.src.n
		}
		p[i] = g.gamma(alpha, d, c)
		sum += p[i]
	}
	return sum
}

// normalise divides p by sum, the last step of a Dirichlet draw; a zero
// sum (possible for very small alpha, every entry 0) puts all the mass
// on one uniform index instead.
func (g *RNG) normalise(p []float64, sum float64) {
	if sum == 0 {
		p[g.Intn(len(p))] = 1
		return
	}
	divide(p, sum)
}
