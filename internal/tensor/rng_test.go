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

// schrageRing is math/rand's seeding loop written out: seedrand stepped
// serially through Schrage's method, the ring before the seeding table.
func schrageRing(seed int64) (ring [rngLen]int64) {
	const a, q, r = 48271, 44488, 3399
	step := func(x int32) int32 {
		hi, lo := x/q, x%q
		if x = a*lo - r*hi; x < 0 {
			x += int32max
		}
		return x
	}
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := -20; i < rngLen; i++ {
		x = step(x)
		if i >= 0 {
			u := int64(x) << 40
			x = step(x)
			u ^= int64(x) << 20
			x = step(x)
			u ^= int64(x)
			ring[i] = u
		}
	}
	return ring
}

func TestSeedLanesMatchSchrage(t *testing.T) {
	// mix's jump-ahead lanes against the serial loop, with and without the
	// seeding table, at the normalisation's edges (0 and every multiple of
	// 2^31 − 1 seed 89482311, negatives wrap) and at drawn seeds.
	seeds := []int64{0, 1, -1, int32max, -int32max, 2 * int32max, 89482311, math.MinInt64, math.MaxInt64}
	drawn := 100_000
	if raceEnabled {
		drawn = 5_000
	}
	r := rand.New(rand.NewSource(3))
	for range drawn {
		seeds = append(seeds, int64(r.Uint64()))
	}
	var zero [rngLen]int64
	for _, seed := range seeds {
		want := schrageRing(seed)
		var s source
		s.mix(seed, &zero)
		for i := range want {
			if s.vec[i] != want[i] {
				t.Fatalf("seed %d word %d: lane ring %d, want the serial loop's %d", seed, i, s.vec[i], want[i])
			}
		}
		s.Seed(seed)
		for i := range want {
			if got := s.vec[i] ^ rngCooked[i]; got != want[i] {
				t.Fatalf("seed %d word %d: seeded ring %d, want %d", seed, i, got, want[i])
			}
		}
		if s.tap != 0 || s.feed != rngLen-rngTap || s.n != 0 {
			t.Fatalf("seed %d: positions %d/%d and count %d after seeding", seed, s.tap, s.feed, s.n)
		}
	}

	// The lanes' entry points, stepped to one value at a time.
	p, jump := uint64(1), [seedLanes]uint64{}
	for step := 1; step <= 21+3*seedBlock*(seedLanes-1); step++ {
		p = lehmerStep(p)
		if d := step - 21; d >= 0 && d%(3*seedBlock) == 0 {
			jump[d/(3*seedBlock)] = p
		}
	}
	if jump != seedJump {
		t.Fatalf("seedJump %v, want %v", seedJump, jump)
	}

	// cookedTable reads math/rand's table back through the lane fill; its
	// first and last words as math/rand/rng.go writes them.
	cooked := cookedTable()
	if cooked != rngCooked {
		t.Fatal("cookedTable differs between calls")
	}
	for i, w := range map[int]int64{
		0: -4181792142133755926, 1: -4576982950128230565, 2: 1395769623340756751, 3: 5333664234075297259,
		604: 8382142935188824023, 605: 9103922860780351547, 606: 4152330101494654406,
	} {
		if cooked[i] != w {
			t.Fatalf("cooked word %d: %d, want math/rand's %d", i, cooked[i], w)
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
	d, c := gammaDC(0.5) // Gamma(1.5)'s, which the boost draws
	for i := 0; i < 10_000; i++ {
		u := b.Float64()
		for u == 0 {
			u = b.Float64()
		}
		want := b.gamma(1.5, d, c) * math.Pow(u, 2)
		if got := a.gamma(0.5, d, c); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: Gamma(0.5) %v, want %v", i, got, want)
		}
	}
	if a.State() != b.State() {
		t.Fatalf("positions %+v and %+v differ", a.State(), b.State())
	}
}
