package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// countedSource is math/rand's own source with a draw counter: the
// reference side of the generator tests. Like source it is only a
// rand.Source, so rand.Rand sends every draw through Int63.
type countedSource struct {
	rand.Source
	n uint64
}

func (s *countedSource) Int63() int64 {
	s.n++
	return s.Source.Int63()
}

// mathRand returns rand.New over math/rand's source for seed, and the
// counter under it.
func mathRand(seed int64) (*rand.Rand, *countedSource) {
	src := &countedSource{Source: rand.NewSource(seed)}
	return rand.New(src), src
}

func TestSourceMatchesMathRand(t *testing.T) {
	if _, ok := any(&source{}).(rand.Source64); ok {
		t.Fatal("source implements rand.Source64: rand.New would route Uint64 around the draw counter")
	}
	const draws = 100_000
	for _, seed := range []int64{0, 1, -1, 42, 89482311, math.MaxInt32, 2 * math.MaxInt32, -1 << 62, math.MinInt64, math.MaxInt64} {
		g, ref := NewRNG(seed), rand.NewSource(seed)
		for i := 0; i < draws; i++ {
			if got, want := g.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d draw %d: %d, want math/rand's %d", seed, i, got, want)
			}
		}
		if pos := g.State().Pos; pos != draws {
			t.Fatalf("seed %d: position %d after %d draws", seed, pos, draws)
		}

		// Everything above the source is math/rand's own code, so whole
		// distributions must agree bit for bit, not just the base draws.
		a, b := NewRNG(seed).r, rand.New(rand.NewSource(seed))
		same := func(what string, x, y float64) {
			if math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("seed %d %s: %v, want %v", seed, what, x, y)
			}
		}
		for i := 1; i <= 1000; i++ {
			same("Float64", a.Float64(), b.Float64())
			same("NormFloat64", a.NormFloat64(), b.NormFloat64())
			same("ExpFloat64", a.ExpFloat64(), b.ExpFloat64())
			if x, y := a.Intn(i), b.Intn(i); x != y {
				t.Fatalf("seed %d Intn(%d): %d, want %d", seed, i, x, y)
			}
			if x, y := a.Int31n(int32(i<<20+i)), b.Int31n(int32(i<<20+i)); x != y {
				t.Fatalf("seed %d Int31n: %d, want %d", seed, x, y)
			}
		}
		if x, y := a.Perm(1000), b.Perm(1000); !slices.Equal(x, y) {
			t.Fatalf("seed %d: Perm differs", seed)
		}
		xs, ys := make([]int, 100), make([]int, 100)
		for i := range xs {
			xs[i], ys[i] = i, i
		}
		a.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		b.Shuffle(len(ys), func(i, j int) { ys[i], ys[j] = ys[j], ys[i] })
		if !slices.Equal(xs, ys) {
			t.Fatalf("seed %d: Shuffle differs", seed)
		}
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("seed %d: streams apart after the distributions: %d, want %d", seed, x, y)
		}
	}
}

func TestSourceAdvanceMatchesDraws(t *testing.T) {
	// Blocks of every size the ring allows, from both orders of tap and
	// feed (feed 334 above tap, and feed 273 below it), against the same
	// stream drawn one Int63 at a time: same draws, same ring.
	r := rand.New(rand.NewSource(13))
	var blocked, single source
	blocked.Seed(99)
	single.Seed(99)
	var orders [2]int
	for blocks := 0; blocks < 400; blocks++ {
		if blocked.tap < blocked.feed || blocked.tap == 0 {
			orders[0]++
		} else {
			orders[1]++
		}
		want := 1 + r.Intn(700)
		blk := slices.Clone(blocked.advance(want))
		if len(blk) == 0 || len(blk) > want {
			t.Fatalf("block %d: advance(%d) made %d draws", blocks, want, len(blk))
		}
		for i := len(blk) - 1; i >= 0; i-- {
			if got, want := blk[i]&math.MaxInt64, single.Int63(); got != want {
				t.Fatalf("block %d: draw %d is %d, want %d", blocks, len(blk)-1-i, got, want)
			}
		}
		if blocked != single {
			t.Fatalf("block %d: ring differs from the one drawn a word at a time", blocks)
		}
	}
	if orders[0] == 0 || orders[1] == 0 {
		t.Fatalf("blocks started %d times with feed above tap and %d below; need both", orders[0], orders[1])
	}
}

func TestRestoreRNGMatchesLive(t *testing.T) {
	// Around the ring's wrap points and well past them: RestoreRNG's block
	// replay lands on the live generator's exact ring.
	live := NewRNG(42)
	for _, pos := range []uint64{0, 1, 272, 273, 274, 333, 334, 606, 607, 608, 1_000_003} {
		for live.State().Pos < pos {
			live.Int63()
		}
		g, err := RestoreRNG(live.State())
		if err != nil {
			t.Fatal(err)
		}
		if g.State() != live.State() || g.src != live.src {
			t.Fatalf("position %d: restored ring differs from the live one", pos)
		}
	}
	for _, pos := range []uint64{1<<34 + 1, 1 << 62, math.MaxUint64} {
		start := time.Now()
		if g, err := RestoreRNG(RNGState{Seed: 1, Pos: pos}); err == nil || g != nil {
			t.Fatalf("position %d: RestoreRNG must refuse it", pos)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("position %d: refusal took %v", pos, d)
		}
	}
}

func TestGammaSquareMatchesPow(t *testing.T) {
	// Gamma's boost at shape 0.5 squares u instead of calling
	// math.Pow(u, 2): the same bits for every u Float64 can return.
	check := func(u float64) {
		if p, s := math.Pow(u, 2), u*u; math.Float64bits(p) != math.Float64bits(s) {
			t.Fatalf("u=%v (%#x): Pow %v, u·u %v", u, math.Float64bits(u), p, s)
		}
	}
	g := NewRNG(21)
	for i := 0; i < 1_000_000; i++ {
		check(g.Float64())
	}
	for e := -63; e <= 0; e++ { // ±3 ulp around every power of two
		p := math.Ldexp(1, e)
		u, d := p, p
		for i := 0; i < 4; i++ {
			if u < 1 {
				check(u)
			}
			check(d)
			u, d = math.Nextafter(u, 2), math.Nextafter(d, 0)
		}
	}
	for x := int64(1); x <= 1<<20; x++ { // the smallest and largest Int63 / 2^63
		check(float64(x) / (1 << 63))
		if u := float64(math.MaxInt64-x+1) / (1 << 63); u < 1 {
			check(u)
		}
	}

	// And the sampler itself, against the boost written with math.Pow.
	a, b := NewRNG(8), NewRNG(8)
	for i := 0; i < 10_000; i++ {
		u := b.Float64()
		for u == 0 {
			u = b.Float64()
		}
		want := b.Gamma(1.5) * math.Pow(u, 2)
		if got := a.Gamma(0.5); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: Gamma(0.5) %v, want %v", i, got, want)
		}
	}
	if a.State() != b.State() {
		t.Fatalf("positions %+v and %+v differ", a.State(), b.State())
	}
}
