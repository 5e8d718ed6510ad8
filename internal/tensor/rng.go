package tensor

import (
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
	src  *countingSource
}

// countingSource wraps the stdlib source and counts every Int63 draw. It
// deliberately implements only rand.Source (NOT Source64): every rand.Rand
// method this library uses — Float64, Intn, Int63, NormFloat64, Perm,
// Shuffle — bottoms out in Source.Int63, so the wrapped stream is
// bit-identical to the unwrapped one while the counter gives an exact
// stream position. (seed, position) is therefore a complete, restorable
// snapshot of a generator — the fact the round-checkpoint machinery is
// built on.
type countingSource struct {
	src rand.Source
	n   uint64
}

func (s *countingSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.n = 0
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed int64) *RNG {
	src := &countingSource{src: rand.NewSource(seed)}
	return &RNG{r: rand.New(src), seed: seed, src: src}
}

// RNGState is a serializable snapshot of a generator: its construction
// seed plus how many base draws it has consumed. RestoreRNG(State())
// yields a generator whose future draws are bit-identical to the
// original's.
type RNGState struct {
	Seed int64
	Pos  uint64
}

// State snapshots the generator's position.
func (g *RNG) State() RNGState { return RNGState{Seed: g.seed, Pos: g.src.n} }

// RestoreRNG rebuilds a generator at a snapshotted position by replaying
// (and discarding) the consumed prefix of its stream. Replay costs one
// Int63 per consumed draw — cheap even for selection streams that Perm
// over large populations every round.
func RestoreRNG(st RNGState) *RNG {
	g := NewRNG(st.Seed)
	for g.src.n < st.Pos {
		g.src.Int63()
	}
	return g
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

// Float64 returns a uniform sample in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform integer in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Normal returns a sample from N(mean, std²).
func (g *RNG) Normal(mean, std float64) float64 {
	return mean + std*g.r.NormFloat64()
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// PermPrefix returns Perm(n)[:min(k,n)] — the same ids, and the generator
// left at the same stream position — in O(k) memory instead of O(n). It
// is how a round draws K of N clients without an N-sized scratch array.
//
// Why the truncation is exact: math/rand's Perm is the inside-out shuffle
// (j := Intn(i+1); m[i] = m[j]; m[j] = i), in which a value only ever
// moves to index i, the newest and highest slot. Once the first k steps
// have run, a step i >= k can therefore change m[:k] only through
// m[j] = i when j < k; everything else it touches lies beyond the prefix.
// All n draws are still made, so the stream's shape is Perm(n)'s.
//
// The first k steps are math/rand's own. The n − k after them are
// rand.Rand.Int31n written out against the counting source (which still
// counts every draw): at 10^6 steps a round the Intn → Int31n → Int31 →
// Int63 call chain costs more than the draws do. The rejection
// threshold, and its division, is computed only for a draw that could be
// rejected (v > max implies v >= 2^31 − n). TestPermPrefixMatchesPerm
// pins ids and stream position against math/rand's own Perm, mask and
// rejection cases included.
func (g *RNG) PermPrefix(n, k int) []int {
	if k > n {
		k = n
	}
	if n > math.MaxInt32 {
		// Past Int31n's range math/rand switches to Int63n; defer to it.
		return g.r.Perm(n)[:k]
	}
	m := make([]int, k)
	for i := 0; i < k; i++ {
		j := g.r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	src := g.src
	for i := k; i < n; i++ {
		bound := uint32(i + 1)
		v := uint32(src.Int63() >> 32)
		var j uint32
		if bound&(bound-1) == 0 { // power of two: mask, never rejects
			j = v & (bound - 1)
		} else {
			if v > math.MaxInt32-bound {
				max := uint32(math.MaxInt32) - (1<<31)%bound
				for v > max {
					v = uint32(src.Int63() >> 32)
				}
			}
			j = v % bound
		}
		if int(j) < k {
			m[j] = i
		}
	}
	return m
}

// Shuffle permutes xs uniformly at random in place.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Gamma samples from Gamma(shape, 1) using the Marsaglia–Tsang method.
// It is the building block for Dirichlet sampling.
func (g *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("tensor: Gamma requires shape > 0")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := g.Float64()
		for u == 0 {
			u = g.Float64()
		}
		return g.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := g.r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
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
func (g *RNG) DirichletInto(p []float64, alpha float64) {
	sum := 0.0
	for i := range p {
		p[i] = g.Gamma(alpha)
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
	t := Zeros(shape...)
	for i := range t.Data {
		t.Data[i] = lo + (hi-lo)*g.Float64()
	}
	return t
}
