package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// RNG wraps math/rand with the distributions the library needs. Every
// stochastic component takes an explicit *RNG so experiments are exactly
// reproducible from a single seed.
//
// Concurrency contract: an RNG is NOT safe for concurrent use. The
// supported pattern for parallel work is to Split (or SplitN) children
// from a single goroutine *before* dispatch and hand each worker exclusive
// ownership of its child. Because a child's seed is fixed at split time,
// the streams the workers consume are independent of scheduling, which is
// what makes parallel runs bit-identical to serial ones.
type RNG struct {
	r    *rand.Rand
	seed int64
	src  source
}

// The additive lagged-Fibonacci generator under math/rand's NewSource:
// x_t = x_{t−607} + x_{t−273} mod 2^64, kept as a 607-word ring.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
)

// source is math/rand's rngSource, ported so the package owns its ring,
// plus a count of every draw made since seeding: its Int63 sequence is
// rand.NewSource(seed)'s for every seed (TestSourceMatchesMathRand). It
// deliberately implements only rand.Source, NOT Source64 — rand.New would
// route Uint64 around the counter — so every rand.Rand method this
// library calls (Intn, Int63, Perm, Shuffle, NormFloat64's slow path) is
// math/rand's own code over one counted stream, and the draws read
// straight from the ring (Float64, Normal's ziggurat fast path, Gamma;
// rng_ring.go) are that code written out over the same words. (seed,
// position) is therefore a complete, restorable snapshot of a generator
// — the fact the round-checkpoint machinery is built on. Owning the ring
// is what lets RestoreRNG advance it a block at a time (advance).
type source struct {
	tap, feed int // ring indices the next draw steps down to
	vec       [rngLen]int64
	n         uint64 // draws since seeding
}

// Seed is math/rand's rngSource.Seed: seedrand's sequence after a 20-step
// warm-up, folded into the seeding table.
func (s *source) Seed(seed int64) {
	s.mix(seed)
	for i := range s.vec {
		s.vec[i] ^= rngCooked[i]
	}
}

// mix is Seed without the seeding table: the ring filled from seed's
// seedrand sequence, positions and counter reset.
func (s *source) mix(seed int64) {
	s.tap, s.feed, s.n = 0, rngLen-rngTap, 0
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := -20; i < rngLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			u := int64(x) << 40
			x = seedrand(x)
			u ^= int64(x) << 20
			x = seedrand(x)
			u ^= int64(x)
			s.vec[i] = u
		}
	}
}

// seedrand is x[n+1] = 48271 · x[n] mod (2^31 − 1), Schrage's method.
func seedrand(x int32) int32 {
	const a, q, r = 48271, 44488, 3399
	hi, lo := x/q, x%q
	if x = a*lo - r*hi; x < 0 {
		x += int32max
	}
	return x
}

// Int63 makes one draw.
func (s *source) Int63() int64 {
	s.n++
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & math.MaxInt64
}

// advance makes up to max > 0 draws at once — as many as the ring allows
// before tap or feed wraps, 273 or 334 — and returns them in place: the
// first draw is the block's last word, the last draw its first (each is
// the raw 64-bit word; Int63 would clear the top bit). The block is only
// valid until the source draws again. Four words at a time is exact
// because a draw reads a word written 273 draws earlier or one written
// 334 draws later, never one of its own four (ringAdd).
func (s *source) advance(max int) []int64 {
	if s.tap == 0 {
		s.tap = rngLen
	}
	if s.feed == 0 {
		s.feed = rngLen
	}
	c := min(max, s.tap, s.feed)
	t, f := s.tap-c, s.feed-c
	blk := s.vec[f:s.feed]
	ringAdd(blk, s.vec[t:s.tap])
	s.tap, s.feed = t, f
	s.n += uint64(c)
	return blk
}

// rngCooked is math/rand's seeding table (rngCooked in math/rand/rng.go),
// recovered at init from math/rand's own stream rather than copied. The
// first 607 words of rand.NewSource(1) determine seed 1's ring: draw t
// adds word 607−t into word 334−t (941−t once t > 334), and a word below
// 334 that it reads was written by draw t−273. Inverting that recurrence
// gives the ring; XOR-ing off seed 1's seedrand mixing gives the table.
var rngCooked = cookedTable()

func cookedTable() (cooked [rngLen]int64) {
	ref := rand.NewSource(1).(rand.Source64)
	var x [rngLen + 1]int64 // x[t] is draw t, from 1
	for t := 1; t <= rngLen; t++ {
		x[t] = int64(ref.Uint64())
	}
	var ring [rngLen]int64
	for t := 274; t <= 334; t++ {
		ring[334-t] = x[t] - x[t-273]
	}
	for t := 335; t <= rngLen; t++ {
		ring[941-t] = x[t] - x[t-273]
	}
	for t := 1; t <= 273; t++ {
		ring[334-t] = x[t] - ring[607-t]
	}
	var s source
	s.mix(1)
	for i := range cooked {
		cooked[i] = ring[i] ^ s.vec[i]
	}
	return cooked
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed int64) *RNG {
	g := &RNG{seed: seed}
	g.src.Seed(seed)
	g.r = rand.New(&g.src)
	return g
}

// RNGState is a serializable snapshot of a generator: its construction
// seed plus how many base draws it has consumed. RestoreRNG(State())
// yields a generator whose future draws are bit-identical to the
// original's.
//
// RestoreRNG refuses a Pos above 2^34: replaying that many draws takes a
// few seconds — about 17,000 rounds of selection over 10^6 clients — and
// a checkpoint claiming more is corrupt or hostile (2^62 would replay for
// centuries).
type RNGState struct {
	Seed int64
	Pos  uint64
}

// maxRestorePos is RestoreRNG's replay limit, documented on RNGState.
const maxRestorePos = 1 << 34

// State snapshots the generator's position.
func (g *RNG) State() RNGState { return RNGState{Seed: g.seed, Pos: g.src.n} }

// RestoreRNG rebuilds a generator at a snapshotted position by replaying
// (and discarding) the consumed prefix of its stream, a ring block at a
// time.
func RestoreRNG(st RNGState) (*RNG, error) {
	if st.Pos > maxRestorePos {
		return nil, fmt.Errorf("tensor: RNG position %d exceeds the replay limit %d", st.Pos, uint64(maxRestorePos))
	}
	g := NewRNG(st.Seed)
	for left := st.Pos; left > 0; {
		left -= uint64(len(g.src.advance(int(min(left, rngLen)))))
	}
	return g, nil
}

// Split derives an independent child generator; use it to give each client
// or worker its own stream without coupling their draw order.
func (g *RNG) Split() *RNG {
	return NewRNG(g.r.Int63())
}

// SplitN derives n independent children in one call, in order. It is the
// pre-dispatch half of the concurrency contract above: call it serially,
// then move each child to its worker. SplitN(n) consumes exactly n draws
// from g, the same as n consecutive Split calls.
func (g *RNG) SplitN(n int) []*RNG {
	children := make([]*RNG, n)
	for i := range children {
		children[i] = g.Split()
	}
	return children
}

// Intn returns a uniform integer in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle permutes xs uniformly at random in place.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Gamma samples from Gamma(shape, 1) using the Marsaglia–Tsang method.
// It is the building block for Dirichlet sampling.
func (g *RNG) Gamma(shape float64) float64 {
	d, c := gammaDC(shape)
	return g.gamma(shape, d, c)
}

// gammaDC is Marsaglia–Tsang's d = a − 1/3 and c = 1/√(9d) for a = shape,
// or for a = shape + 1 below 1, where Gamma boosts.
func gammaDC(shape float64) (d, c float64) {
	if !(shape > 0) {
		panic("tensor: Gamma requires shape > 0")
	}
	if shape < 1 {
		shape++
	}
	d = shape - 1.0/3.0
	return d, 1 / math.Sqrt(9*d)
}

// gamma is Gamma with gammaDC(shape) computed by the caller.
func (g *RNG) gamma(shape, d, c float64) float64 {
	// Boost below 1: Gamma(a) = Gamma(a+1) · U^(1/a), U drawn first.
	boost := 1.0
	if shape < 1 {
		var u float64
		for u == 0 {
			u = g.src.float64()
		}
		if e := 1 / shape; e != 2 {
			boost = math.Pow(u, e)
		} else {
			// Dir(0.5), every paper profile: Pow(u, 2) is Frexp, one
			// rounded square of the mantissa, then exact scaling — u·u's
			// one rounding, as u ≥ 2^−63 keeps the square normal
			// (TestGammaSquareMatchesPow).
			boost = u * u
		}
	}
	for {
		x := g.normFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		w := g.src.float64()
		if w < 1-0.0331*x*x*x*x {
			return d * v * boost
		}
		if w > 0 && math.Log(w) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * boost
		}
	}
}

// Dirichlet samples a probability vector from Dir(alpha, ..., alpha) of
// dimension k. Smaller alpha yields more concentrated (heterogeneous)
// vectors; this is the Dir(β) prior used for non-IID client partitions.
func (g *RNG) Dirichlet(alpha float64, k int) []float64 {
	p := make([]float64, k)
	g.DirichletInto(p, alpha)
	return p
}

// DirichletInto is Dirichlet into a caller-owned vector of dimension
// len(p): same draws, same values. Every entry is overwritten, so p may
// be dirty — a loop that needs one sample at a time reuses one buffer.
// With AVX2 the Gamma draws run four at a time (simd_rng.go).
func (g *RNG) DirichletInto(p []float64, alpha float64) { g.dirichletInto(p, alpha) }

// DirichletIntoGo is DirichletInto's scalar twin, one Gamma draw at a
// time, which off amd64, under purego and without AVX2 is DirichletInto.
func (g *RNG) DirichletIntoGo(p []float64, alpha float64) {
	d, c := gammaDC(alpha)
	sum := 0.0
	for i := range p {
		p[i] = g.gamma(alpha, d, c)
		sum += p[i]
	}
	if sum == 0 {
		// Degenerate draw (possible for very small alpha): fall back to a
		// one-hot vector at a uniform index (every entry is 0 here).
		p[g.Intn(len(p))] = 1
		return
	}
	for i := range p {
		p[i] /= sum
	}
}

// Randn fills a fresh tensor of the given shape with N(0, std²) samples.
func (g *RNG) Randn(std float64, shape ...int) *Tensor {
	t := Zeros(shape...)
	for i := range t.Data {
		t.Data[i] = g.Normal(0, std)
	}
	return t
}

// Uniform fills a fresh tensor with samples from U[lo, hi).
func (g *RNG) Uniform(lo, hi float64, shape ...int) *Tensor {
	if !(lo <= hi) {
		panic("tensor: Uniform bounds out of order")
	}
	t := Zeros(shape...)
	for i := range t.Data {
		t.Data[i] = lo + (hi-lo)*g.Float64()
	}
	return t
}
