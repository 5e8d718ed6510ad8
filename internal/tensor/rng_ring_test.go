package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// oracleGamma is Gamma as it was written before it read the ring
// directly: the Marsaglia–Tsang body over math/rand's own Rand, with
// d and c recomputed on every call.
func oracleGamma(r *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		x := oracleGamma(r, shape+1)
		if e := 1 / shape; e != 2 {
			return x * math.Pow(u, e)
		}
		return x * (u * u)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// oracleDirichletInto is DirichletInto over oracleGamma.
func oracleDirichletInto(r *rand.Rand, p []float64, alpha float64) {
	sum := 0.0
	for i := range p {
		p[i] = oracleGamma(r, alpha)
		sum += p[i]
	}
	if sum == 0 {
		p[r.Intn(len(p))] = 1
		return
	}
	for i := range p {
		p[i] /= sum
	}
}

func TestRingDistributionsMatchMathRand(t *testing.T) {
	// Float64, Normal, Gamma and DirichletInto read the ring themselves;
	// against the oracle over math/rand's own Rand and source they must
	// return the same bits and consume the same draws, call after call.
	// Every case ends on the draw counters and the next Int63, which pin
	// the stream position.
	alphas := []float64{0.05, 0.1, 0.5, 1, 1.5, 5}
	lengths := []int{1, 7, 100_000, 1_000_000}
	if raceEnabled {
		lengths = lengths[:3]
	}
	for _, seed := range []int64{1, 2, -7, 1 << 40} {
		g := NewRNG(seed)
		ref, src := mathRand(seed)
		bits := func(what string, i int, x, y float64) {
			if math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("seed %d %s %d: %v, want %v", seed, what, i, x, y)
			}
		}
		position := func(what string) {
			t.Helper()
			if p := g.State().Pos; p != src.n {
				t.Fatalf("seed %d after %s: position %d, want %d", seed, what, p, src.n)
			}
			if x, y := g.Int63(), ref.Int63(); x != y {
				t.Fatalf("seed %d after %s: next Int63 %d, want %d", seed, what, x, y)
			}
		}
		for i := 0; i < 20_000; i++ {
			bits("Float64", i, g.Float64(), ref.Float64())
		}
		position("Float64")
		for i := 0; i < 200_000; i++ {
			bits("Normal", i, g.Normal(0, 1), ref.NormFloat64())
		}
		position("Normal")
		for i := 0; i < 1000; i++ {
			bits("Normal(mean, std)", i, g.Normal(-3, 0.25), -3+0.25*ref.NormFloat64())
		}
		position("Normal(mean, std)")
		for _, a := range alphas {
			d, c := gammaDC(a)
			for i := 0; i < 5000; i++ {
				bits("Gamma", i, g.gamma(a, d, c), oracleGamma(ref, a))
			}
			position("Gamma")
		}
		for _, n := range lengths {
			if n >= 100_000 && seed != 1 && (n > 100_000 || seed != 2) {
				continue // the long vectors on the first seed or two
			}
			got, want := make([]float64, n), make([]float64, n)
			for _, a := range alphas {
				for call := 0; call < 2; call++ {
					g.DirichletInto(got, a)
					oracleDirichletInto(ref, want, a)
					for i := range got {
						bits("DirichletInto", i, got[i], want[i])
					}
					position("DirichletInto")
				}
			}
		}
	}
}

// forceWord rewrites the ring so that the next draw's raw word is w.
func forceWord(s *source, w uint64) { plantWord(s, 0, w) }

// forceDraw forces the next draw's rand.Rand.Uint32 to uint32(j), with
// random bits everywhere Uint32 ignores (bit 63 included).
func forceDraw(s *source, j int32, r *rand.Rand) { forceWord(s, normalWord(r, j)) }

func TestFloat64RetriesAtOne(t *testing.T) {
	// An Int63 within 2^9 of 2^63 divides to exactly 1, which Float64
	// draws again; one just below that bound does not. Against math/rand
	// reading a copy of the same ring: same value, same ring afterwards.
	g := NewRNG(41)
	for _, v := range []uint64{1<<63 - 1, 1<<63 - 1<<9, 1<<63 - 1<<9 - 1, 1<<63 - 1<<10, 0} {
		for _, top := range []uint64{0, 1 << 63} {
			forceWord(&g.src, v|top)
			ref := g.src
			want := rand.New(&ref).Float64()
			before := g.src.n
			if got := g.Float64(); math.Float64bits(got) != math.Float64bits(want) || g.src != ref {
				t.Fatalf("Int63 %#x: Float64 %v, want math/rand's %v (rings equal: %v)", v, got, want, g.src == ref)
			}
			if retried := float64(v)/(1<<63) == 1; retried != (g.src.n-before == 2) {
				t.Fatalf("Int63 %#x: %d draws, retry expected: %v", v, g.src.n-before, retried)
			}
		}
	}
}

func TestNormalStripBoundaries(t *testing.T) {
	// For every ziggurat strip i and both signs, force the next draw to
	// the largest |j| the fast path accepts (just below kn[i]) and to the
	// smallest it refuses (at kn[i] or just above), then compare Normal
	// with math/rand reading a copy of the same ring: same value, same
	// ring afterwards. Below the edge the draw is the only one made; at
	// it Normal takes the draw back and math/rand's slow path draws more.
	r := rand.New(rand.NewSource(17))
	g := NewRNG(31)
	for i := int32(0); i < 128; i++ {
		for _, sign := range []int32{1, -1} {
			below, at := int32(-1), int32(-1)
			k := int32(kn[i])
			for a := max(k-256, 0); a <= k+256; a++ {
				if j := sign * a; j&0x7F != i || (sign < 0 && a == 0) {
					continue
				}
				if a < k {
					below = a
				} else if at < 0 {
					at = a
				}
			}
			for _, a := range []int32{below, at} {
				if a < 0 {
					continue // strip 1: kn is 0, nothing is below it
				}
				forceDraw(&g.src, sign*a, r)
				ref := g.src
				want := rand.New(&ref).NormFloat64()
				before := g.src.n
				got := g.Normal(0, 1)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("strip %d j=%d: Normal %v, want math/rand's %v", i, sign*a, got, want)
				}
				if g.src != ref {
					t.Fatalf("strip %d j=%d: ring differs from math/rand's after the draw", i, sign*a)
				}
				if drew := g.src.n - before; (a < k) != (drew == 1) {
					t.Fatalf("strip %d j=%d (kn %#x): %d draws", i, sign*a, k, drew)
				}
			}
		}
	}
}

func TestSourceUnreadInvertsInt63(t *testing.T) {
	// unread after Int63 restores the whole source — ring, both indices,
	// counter — from every index pair over three trips around the ring,
	// wrap points included, and after ring blocks taken by advance.
	r := rand.New(rand.NewSource(23))
	var s source
	s.Seed(5)
	var tapAt, feedAt [2]bool // index 0, index 606 seen before a draw
	for d := 0; d < 3*rngLen; d++ {
		if d%97 == 0 {
			s.advance(1 + r.Intn(rngLen))
		}
		tapAt[0] = tapAt[0] || s.tap == 0
		tapAt[1] = tapAt[1] || s.tap == rngLen-1
		feedAt[0] = feedAt[0] || s.feed == 0
		feedAt[1] = feedAt[1] || s.feed == rngLen-1
		before := s
		x := s.Int63()
		s.unread()
		if s != before {
			t.Fatalf("draw %d (tap %d, feed %d): unread did not restore the source", d, before.tap, before.feed)
		}
		if y := s.Int63(); y != x {
			t.Fatalf("draw %d: %d after unread, want %d", d, y, x)
		}
	}
	if tapAt != [2]bool{true, true} || feedAt != [2]bool{true, true} {
		t.Fatalf("tap at 0/606: %v, feed at 0/606: %v; want every case", tapAt, feedAt)
	}
}

// plantWord rewrites the ring so that the k-th next draw (k < 273) makes
// the raw word w. No draw before it writes a word it reads, and no planted
// word is one that another planted draw reads.
func plantWord(s *source, k int, w uint64) {
	f, t := (s.feed-1-k+2*rngLen)%rngLen, (s.tap-1-k+2*rngLen)%rngLen
	s.vec[f] = int64(w) - s.vec[t]
}

// normalWord is a raw word whose rand.Rand.Uint32 is uint32(j), with
// random bits everywhere Uint32 ignores.
func normalWord(r *rand.Rand, j int32) uint64 {
	return uint64(uint32(j))<<31 | r.Uint64()&(1<<63|1<<31-1)
}

// unitWord is a raw word whose Int63 is v, with a random top bit.
func unitWord(r *rand.Rand, v uint64) uint64 { return v | r.Uint64()&(1<<63) }

// fastNormal returns a j on the ziggurat's fast path whose x keeps
// v = 1 + c·x positive and the squeeze 1 − 0.0331·x⁴ above 1/4.
func fastNormal(r *rand.Rand, c float64) int32 {
	for {
		j := int32(r.Uint32())
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] && 1+c*x > 0 && 1-0.0331*x*x*x*x > 0.25 {
			return j
		}
	}
}

// fastPlant returns the raw words of a Gamma(alpha) draw that stays on
// the lanes' fast path: u (below shape 1), the normal, and w.
func fastPlant(r *rand.Rand, alpha float64) []uint64 {
	_, c := gammaDC(alpha)
	var ws []uint64
	if alpha < 1 {
		ws = append(ws, unitWord(r, 1+uint64(r.Int63n(1<<62))))
	}
	return append(ws, normalWord(r, fastNormal(r, c)), unitWord(r, uint64(r.Int63n(1<<61))))
}

// offPlants returns, by name, the raw words of draws whose first attempt
// leaves the squeeze-only fast path one way each — those the shape
// allows.
func offPlants(r *rand.Rand, alpha float64) map[string][]uint64 {
	d, c := gammaDC(alpha)
	boost := alpha < 1
	plant := func(u uint64, j int32, w uint64) []uint64 {
		if boost {
			return []uint64{unitWord(r, u), normalWord(r, j), unitWord(r, w)}
		}
		return []uint64{normalWord(r, j), unitWord(r, w)}
	}
	const u, w = 1 << 62, 1 << 61 // 1/2 and 1/4
	out := map[string][]uint64{
		"j=-2^31":       plant(u, math.MinInt32, w),
		"strip 1":       plant(u, 1|int32(r.Intn(1<<20))<<7, w),
		"w=0":           plant(u, fastNormal(r, c), 0),
		"w>=1/2":        plant(u, fastNormal(r, c), 1<<62|uint64(r.Int63n(1<<62))),
		"w rounds to 1": plant(u, fastNormal(r, c), 1<<63-1<<9+uint64(r.Intn(1<<9))),
	}
	if boost {
		out["u=0"] = plant(0, fastNormal(r, c), w)
		out["u rounds to 1"] = plant(1<<63-1<<9+uint64(r.Intn(1<<9)), fastNormal(r, c), w)
	}
	// |j| exactly at kn[i], for a strip i that ±kn[i] lies in.
	for i := int32(0); i < 128; i++ {
		for _, sign := range []int32{1, -1} {
			if j := sign * int32(kn[i]); kn[i] != 0 && j&0x7F == i {
				out["|j|=kn[i]"] = plant(u, j, w)
			}
		}
	}
	out["strip 0 tail"] = plant(u, int32(kn[0]+0x7F)&^0x7F, w)
	// v ≤ 0: the most negative fast x, where it reaches −1/c.
	for i := int32(0); i < 128; i++ {
		a := int32(kn[i]) - 1
		for a > 0 && (-a)&0x7F != i {
			a--
		}
		if a > 0 && 1+c*(float64(-a)*float64(wn[i])) <= 0 {
			out["v<=0"] = plant(u, -a, w)
			break
		}
	}
	// The squeeze fails and the log test decides, both ways.
	for j := int32(1 << 30); j > 0 && (out["log accepts"] == nil || out["log rejects"] == nil); j += 1 << 20 {
		i := j & 0x7F
		if absInt32(j) >= kn[i] {
			continue
		}
		x := float64(j) * float64(wn[i])
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		lim := 1 - 0.0331*x*x*x*x
		for t := 1; t < 64; t++ {
			wi := uint64((lim + (1-lim)*float64(t)/64) * (1 << 63))
			wf := float64(wi) / (1 << 63)
			if wf < lim || wf >= 1 {
				continue
			}
			name := "log rejects"
			if math.Log(wf) < 0.5*x*x+d*(1-v+math.Log(v)) {
				name = "log accepts"
			}
			if out[name] == nil {
				out[name] = plant(u, j, wi)
			}
		}
	}
	return out
}

func TestDirichletLanesMatchScalar(t *testing.T) {
	// DirichletInto's lanes against DirichletIntoGo over the same ring:
	// the same bits, the same draw count and the same next Int63. A draw
	// planted to leave the fast path each way sits at every lane position
	// (after 0–7 planted fast draws), from every ring offset mod 12 and
	// from offsets whose run of steps ends in a wrap of feed inside the
	// planted draws, with every tail length 0–13 after it. α = 0.1 boosts
	// with math.Pow and takes the scalar body.
	tails := 14
	if raceEnabled {
		tails = 3
	}
	r := rand.New(rand.NewSource(29))
	for _, alpha := range []float64{0.5, 1, 1.5, 5, 0.1} {
		lanes, twin := NewRNG(3), NewRNG(3)
		base := lanes.src
		var offsets []int
		for o := 0; o < 12; o++ { // a fresh source's feed wraps after 334 draws
			offsets = append(offsets, o, 334-24-o)
		}
		plants := offPlants(r, alpha)
		need := []string{"j=-2^31", "|j|=kn[i]", "strip 0 tail", "strip 1", "log accepts", "log rejects", "w=0", "w rounds to 1"}
		if alpha < 1 {
			need = append(need, "u=0", "u rounds to 1")
		}
		if alpha < 5 { // at 5, −1/c lies beyond every fast x
			need = append(need, "v<=0")
		}
		for _, name := range need {
			if plants[name] == nil {
				t.Fatalf("alpha %v: no draw planted for %s", alpha, name)
			}
		}
		for name, bad := range plants {
			for pos := 0; pos < 8; pos++ {
				var ws []uint64
				for range pos {
					ws = append(ws, fastPlant(r, alpha)...)
				}
				ws = append(ws, bad...)
				for _, off := range offsets {
					for tail := 0; tail < tails; tail++ {
						n := pos + 1 + tail
						got, want := make([]float64, n), make([]float64, n)
						for i := range got {
							got[i], want[i] = math.NaN(), math.NaN()
						}
						for _, g := range []*RNG{lanes, twin} {
							g.src = base
							for range off {
								g.src.Int63()
							}
							for k, w := range ws {
								plantWord(&g.src, k, w)
							}
						}
						lanes.DirichletInto(got, alpha)
						twin.DirichletIntoGo(want, alpha)
						for i := range got {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Fatalf("alpha %v, %s at draw %d, offset %d, length %d: entry %d is %v, want %v",
									alpha, name, pos, off, n, i, got[i], want[i])
							}
						}
						if lanes.src.n != twin.src.n || lanes.Int63() != twin.Int63() {
							t.Fatalf("alpha %v, %s at draw %d, offset %d, length %d: position %d, want %d",
								alpha, name, pos, off, n, lanes.src.n, twin.src.n)
						}
					}
				}
			}
		}
		// Unplanted vectors over many wraps, two calls in a row.
		for _, n := range []int{1, 2, 3, 4, 5, 9, 13, 997, 100_000} {
			lanes.src, twin.src = base, base
			got, want := make([]float64, n), make([]float64, n)
			for call := 0; call < 2; call++ {
				lanes.DirichletInto(got, alpha)
				twin.DirichletIntoGo(want, alpha)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("alpha %v, length %d, call %d: entry %d is %v, want %v", alpha, n, call, i, got[i], want[i])
					}
				}
				if lanes.src.n != twin.src.n || lanes.Int63() != twin.Int63() {
					t.Fatalf("alpha %v, length %d, call %d: position %d, want %d", alpha, n, call, lanes.src.n, twin.src.n)
				}
			}
		}
	}
}

func TestGammaRefusesNaNShape(t *testing.T) {
	// NaN passes a shape <= 0 test; the Gamma draw must refuse it rather
	// than return NaN.
	defer func() {
		if recover() == nil {
			t.Fatal("Gamma(NaN) did not panic")
		}
	}()
	gammaDC(math.NaN())
}
