package tensor

// Generator kernels: the loop under RestoreRNG's replay and the Gamma
// draws under RNG.DirichletInto, platform-dispatched like the wire
// kernels. ringAdd advances the source's ring a block at a time, taking
// a block the way source.advance returns it — the first draw is the last
// word; it is not a Backend method. Off amd64, under purego and without
// AVX2 the scalar twins below (and DirichletIntoGo) run; the tests hold
// the assembly to them.
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

// ringAddGo computes dst[i] += src[i] for i descending, the order the
// draws are made in. src may overlap dst 273 words up, where a draw reads
// what the draw 273 before it wrote.
func ringAddGo(dst, src []int64) {
	src = src[:len(dst)]
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] += src[i]
	}
}
