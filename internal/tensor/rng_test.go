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

// permPrefixPerDraw is PermPrefix's tail as it was before the block scan:
// rand.Rand.Int31n written out one Int63 at a time. It returns the prefix
// and how many draws the tail rejected.
func permPrefixPerDraw(r *rand.Rand, n, k int) (m []int, rejected int) {
	m = make([]int, k)
	for i := 0; i < k; i++ {
		j := r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	for i := k; i < n; i++ {
		bound := uint32(i + 1)
		v := uint32(r.Int63() >> 32)
		var j uint32
		if bound&(bound-1) == 0 {
			j = v & (bound - 1)
		} else {
			if v > math.MaxInt32-bound {
				max := uint32(math.MaxInt32) - (1<<31)%bound
				for v > max {
					rejected++
					v = uint32(r.Int63() >> 32)
				}
			}
			j = v % bound
		}
		if int(j) < k {
			m[j] = i
		}
	}
	return m, rejected
}

func TestPermPrefixMatchesPerm(t *testing.T) {
	// PermPrefix(n, k) must return math/rand's Perm(n)[:min(k,n)] and leave
	// the generator where Perm(n) leaves it. The reference side is
	// rand.Rand.Perm over math/rand's own source, so position equality is
	// what proves the written-out Int31n and the block scan right: the
	// sizes cover powers of two (mask path) and, at 10^6, over a hundred
	// rejected draws per call.
	const calls = 2 // consecutive draws from one generator
	check := func(n int, seed int64, ks ...int) {
		t.Helper()
		ref, src := mathRand(seed)
		var perms [calls][]int
		var pos [calls]uint64
		var nexts [calls]int64
		for c := 0; c < calls; c++ {
			before := src.n
			perms[c] = ref.Perm(n)
			pos[c] = src.n
			nexts[c] = ref.Int63()
			if n == 1000000 && pos[c]-before <= uint64(n) {
				t.Fatalf("n=%d seed=%d call %d: reference Perm rejected no draw; the case proves nothing", n, seed, c)
			}
		}
		for _, k := range ks {
			got := NewRNG(seed)
			for c := 0; c < calls; c++ {
				want := perms[c]
				if k < n {
					want = want[:k]
				}
				if have := got.PermPrefix(n, k); !slices.Equal(have, want) {
					t.Fatalf("n=%d k=%d seed=%d call %d: %d ids differ from Perm(n)'s first %d", n, k, seed, c, len(have), len(want))
				}
				if p := got.State().Pos; p != pos[c] {
					t.Fatalf("n=%d k=%d seed=%d call %d: position %d, want %d", n, k, seed, c, p, pos[c])
				}
				if next := got.Int63(); next != nexts[c] {
					t.Fatalf("n=%d k=%d seed=%d call %d: next Int63 %d, want %d", n, k, seed, c, next, nexts[c])
				}
			}
		}
	}
	for _, n := range []int{1, 2, 3, 7, 64, 100, 1000, 4096, 65536, 100000, 1000000} {
		for _, seed := range []int64{1, 2} {
			check(n, seed, 0, 1, 3, 10, 1000, n, n+5)
		}
	}
	cases := rand.New(rand.NewSource(3))
	for c := 0; c < 300; c++ {
		n := int(math.Exp(cases.Float64() * math.Log(2e5))) // log-uniform in [1, 2·10^5]
		check(n, cases.Int63()-cases.Int63(), cases.Intn(n+6))
	}

	// Past 2^26 steps the tail rejects about half a million draws; the
	// oracle is the per-draw loop the block scan replaced.
	if raceEnabled {
		return
	}
	const n, k, seed = 1<<26 + 12345, 1000, 5
	ref, src := mathRand(seed)
	want, rejected := permPrefixPerDraw(ref, n, k)
	if rejected == 0 {
		t.Fatal("the per-draw oracle rejected no draw; the case proves nothing")
	}
	got := NewRNG(seed)
	if have := got.PermPrefix(n, k); !slices.Equal(have, want) {
		t.Fatalf("n=%d: prefix differs from the per-draw oracle's", n)
	}
	if p := got.State().Pos; p != src.n {
		t.Fatalf("n=%d: position %d, want %d (%d rejections)", n, p, src.n, rejected)
	}
}

// scanWord returns a ring word whose draw31 is v, with random bits
// everywhere draw31 ignores (bit 63 included).
func scanWord(r *rand.Rand, v uint32) int64 {
	return int64(r.Uint64()&(1<<63|math.MaxUint32) | uint64(v)<<32)
}

func TestPermScanMatchesTwin(t *testing.T) {
	// The dispatched scan (the AVX2 kernel on whole groups of four, the
	// twin on the rest) against the twin, on blocks built to sit on every
	// edge the kernel's arithmetic has: v one either side of the rejection
	// limit 2^31 − 1 − bound, v mod bound one either side of k, v/bound
	// within one of an integer (the reciprocal's ±1 fix-ups), power-of-two
	// bounds, bound 1, and bounds up to 2^31 − 1.
	r := rand.New(rand.NewSource(11))
	edge := func(bound uint32, k int) uint32 {
		lim := int64(math.MaxInt32) - int64(bound)
		q := int64(r.Intn(int(math.MaxInt32/int64(bound)) + 1))
		var v int64
		switch r.Intn(4) {
		case 0:
			v = lim - 1 + int64(r.Intn(3))
		case 1:
			v = q*int64(bound) + int64(k) - 1 + int64(r.Intn(3))
		case 2:
			v = q*int64(bound) - 1 + int64(r.Intn(3))
		default:
			v = r.Int63n(1 << 31)
		}
		return uint32(min(max(v, 0), math.MaxInt32))
	}
	// quiet is a value whose step does nothing, when one exists.
	quiet := func(bound uint32, k int) uint32 {
		lim := uint32(math.MaxInt32) - bound
		for try := 0; try < 8; try++ {
			v := uint32(r.Int63n(int64(lim) + 1))
			if int(v%bound) >= k {
				return v
			}
		}
		return 0
	}
	bases := func() int {
		switch r.Intn(5) {
		case 0:
			return 1
		case 1:
			return 1 << r.Intn(31)
		case 2:
			return math.MaxInt32 - r.Intn(400)
		case 3:
			return 1 + r.Intn(2000)
		}
		return 1 + r.Intn(math.MaxInt32-400)
	}
	for trial := 0; trial < 20000; trial++ {
		n := r.Intn(10)
		if trial%4 == 0 {
			n = r.Intn(335)
		}
		b := bases()
		if b+n > 1<<31 {
			b = 1<<31 - n
		}
		k := 0
		switch r.Intn(3) {
		case 1:
			k = r.Intn(b + 4)
		case 2:
			k = min(b-1, 1+r.Intn(1000))
		}
		blk := make([]int64, n)
		for s := 0; s < n; s++ { // step s is the word n−1−s
			bound := uint32(b + s)
			v := quiet(bound, k)
			if r.Intn(max(n/2, 1)) == 0 {
				v = edge(bound, k)
			}
			blk[n-1-s] = scanWord(r, v)
		}
		if got, want := permScan(blk, b, k), permScanGo(blk, b, k); got != want {
			t.Fatalf("trial %d: n=%d b=%d k=%d: scan stops at step %d, twin at %d", trial, n, b, k, got, want)
		}
	}
	for _, bad := range []struct{ n, b, k int }{{4, 0, 0}, {4, 1, -1}, {4, 1<<31 - 3, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("permScan(n=%d, b=%d, k=%d) must panic", bad.n, bad.b, bad.k)
				}
			}()
			permScan(make([]int64, bad.n), bad.b, bad.k)
		}()
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
