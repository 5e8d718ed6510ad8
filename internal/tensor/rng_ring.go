package tensor

import "math"

// Distributions read straight from the source's ring. rand.Rand's
// Float64 and NormFloat64 reach a draw through three or four calls
// (NormFloat64 → Uint32 → Int63 → Source.Int63, the last dynamic); at
// 10^7 Gamma draws per 10^6-client Dir(β) partition those calls were
// most of the partition's time. The methods below are math/rand's code
// over the same draws, so every value and every stream position is the
// one rand.Rand produces (TestRingDistributionsMatchMathRand).

// Float64 returns a uniform sample in [0,1). It stays one out-of-line
// call, as it was over rand.Rand: the Gamma draw, the one caller that draws it by
// the million, reads the ring inline instead, and inlining the loop into
// every other call site would only grow them.
//
//go:noinline
func (g *RNG) Float64() float64 { return g.src.float64() }

// Normal returns a sample from N(mean, std²).
func (g *RNG) Normal(mean, std float64) float64 {
	return mean + std*g.normFloat64()
}

// NormalInto fills dst with len(dst) samples of N(mean, std²): the bits
// and the stream position of len(dst) calls of Normal, in Normal's
// expression form. The ring's indices stay in locals across dst and the
// ziggurat's fast path runs inline; a draw that misses it takes Normal's
// own way out, unread and then rand.Rand.NormFloat64.
func (g *RNG) NormalInto(dst []float64, mean, std float64) {
	s := &g.src
	tap, feed := s.tap, s.feed
	for i := range dst {
		if tap--; tap < 0 {
			tap += rngLen
		}
		if feed--; feed < 0 {
			feed += rngLen
		}
		w := s.vec[feed] + s.vec[tap]
		s.vec[feed] = w
		j := int32((w & math.MaxInt64) >> 31) // Int63's word, as normFloat64 reads it
		k := j & 0x7F
		if absInt32(j) < kn[k] {
			x := float64(j) * float64(wn[k])
			dst[i] = mean + std*x
			continue
		}
		// The draw is counted once with the rest below; unread takes it
		// back and the slow path counts its own.
		s.tap, s.feed = tap, feed
		s.unread()
		dst[i] = mean + std*g.r.NormFloat64()
		tap, feed = s.tap, s.feed
	}
	s.tap, s.feed = tap, feed
	s.n += uint64(len(dst))
}

// float64 is rand.Rand.Float64: Int63 / 2^63, drawn again in the
// (1-in-2^53) case that the division rounds up to 1.
func (s *source) float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// unread takes back the last draw, the exact inverse of Int63: the ring
// word it wrote loses what was added to it and both indices step back up.
func (s *source) unread() {
	s.vec[s.feed] -= s.vec[s.tap]
	if s.tap++; s.tap == rngLen {
		s.tap = 0
	}
	if s.feed++; s.feed == rngLen {
		s.feed = 0
	}
	s.n--
}

// skip makes n draws and discards them, a ring block at a time.
func (s *source) skip(n uint64) {
	for n > 0 {
		n -= uint64(len(s.advance(int(min(n, rngLen)))))
	}
}

// normFloat64 is rand.Rand.NormFloat64. Its ziggurat fast path, taken by
// ≈ 97 % of draws, is written out here over math/rand's own tables; a
// draw that misses it (strip 0's tail, a wedge test, and every draw in
// strip 1, whose kn is 0) is taken back and the whole call is left to
// math/rand, which then reads the same word first.
func (g *RNG) normFloat64() float64 {
	j := int32(g.src.Int63() >> 31) // rand.Rand.Uint32, possibly negative
	i := j & 0x7F
	x := float64(j) * float64(wn[i])
	if absInt32(j) < kn[i] {
		return x
	}
	g.src.unread()
	return g.r.NormFloat64()
}

// absInt32 is math/rand's: |i|, with −2^31 mapping to 2^31.
func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// kn and wn are math/rand's ziggurat tables (math/rand/normal.go),
// copied verbatim: strip i accepts j fast when |j| < kn[i], as
// j · wn[i].
var kn = [128]uint32{
	0x76ad2212, 0x0, 0x600f1b53, 0x6ce447a6, 0x725b46a2,
	0x7560051d, 0x774921eb, 0x789a25bd, 0x799045c3, 0x7a4bce5d,
	0x7adf629f, 0x7b5682a6, 0x7bb8a8c6, 0x7c0ae722, 0x7c50cce7,
	0x7c8cec5b, 0x7cc12cd6, 0x7ceefed2, 0x7d177e0b, 0x7d3b8883,
	0x7d5bce6c, 0x7d78dd64, 0x7d932886, 0x7dab0e57, 0x7dc0dd30,
	0x7dd4d688, 0x7de73185, 0x7df81cea, 0x7e07c0a3, 0x7e163efa,
	0x7e23b587, 0x7e303dfd, 0x7e3beec2, 0x7e46db77, 0x7e51155d,
	0x7e5aabb3, 0x7e63abf7, 0x7e6c222c, 0x7e741906, 0x7e7b9a18,
	0x7e82adfa, 0x7e895c63, 0x7e8fac4b, 0x7e95a3fb, 0x7e9b4924,
	0x7ea0a0ef, 0x7ea5b00d, 0x7eaa7ac3, 0x7eaf04f3, 0x7eb3522a,
	0x7eb765a5, 0x7ebb4259, 0x7ebeeafd, 0x7ec2620a, 0x7ec5a9c4,
	0x7ec8c441, 0x7ecbb365, 0x7ece78ed, 0x7ed11671, 0x7ed38d62,
	0x7ed5df12, 0x7ed80cb4, 0x7eda175c, 0x7edc0005, 0x7eddc78e,
	0x7edf6ebf, 0x7ee0f647, 0x7ee25ebe, 0x7ee3a8a9, 0x7ee4d473,
	0x7ee5e276, 0x7ee6d2f5, 0x7ee7a620, 0x7ee85c10, 0x7ee8f4cd,
	0x7ee97047, 0x7ee9ce59, 0x7eea0eca, 0x7eea3147, 0x7eea3568,
	0x7eea1aab, 0x7ee9e071, 0x7ee98602, 0x7ee90a88, 0x7ee86d08,
	0x7ee7ac6a, 0x7ee6c769, 0x7ee5bc9c, 0x7ee48a67, 0x7ee32efc,
	0x7ee1a857, 0x7edff42f, 0x7ede0ffa, 0x7edbf8d9, 0x7ed9ab94,
	0x7ed7248d, 0x7ed45fae, 0x7ed1585c, 0x7ece095f, 0x7eca6ccb,
	0x7ec67be2, 0x7ec22eee, 0x7ebd7d1a, 0x7eb85c35, 0x7eb2c075,
	0x7eac9c20, 0x7ea5df27, 0x7e9e769f, 0x7e964c16, 0x7e8d44ba,
	0x7e834033, 0x7e781728, 0x7e6b9933, 0x7e5d8a1a, 0x7e4d9ded,
	0x7e3b737a, 0x7e268c2f, 0x7e0e3ff5, 0x7df1aa5d, 0x7dcf8c72,
	0x7da61a1e, 0x7d72a0fb, 0x7d30e097, 0x7cd9b4ab, 0x7c600f1a,
	0x7ba90bdc, 0x7a722176, 0x77d664e5,
}
var wn = [128]float32{
	1.7290405e-09, 1.2680929e-10, 1.6897518e-10, 1.9862688e-10,
	2.2232431e-10, 2.4244937e-10, 2.601613e-10, 2.7611988e-10,
	2.9073963e-10, 3.042997e-10, 3.1699796e-10, 3.289802e-10,
	3.4035738e-10, 3.5121603e-10, 3.616251e-10, 3.7164058e-10,
	3.8130857e-10, 3.9066758e-10, 3.9975012e-10, 4.08584e-10,
	4.1719309e-10, 4.2559822e-10, 4.338176e-10, 4.418672e-10,
	4.497613e-10, 4.5751258e-10, 4.651324e-10, 4.7263105e-10,
	4.8001775e-10, 4.87301e-10, 4.944885e-10, 5.015873e-10,
	5.0860405e-10, 5.155446e-10, 5.2241467e-10, 5.2921934e-10,
	5.359635e-10, 5.426517e-10, 5.4928817e-10, 5.5587696e-10,
	5.624219e-10, 5.6892646e-10, 5.753941e-10, 5.818282e-10,
	5.882317e-10, 5.946077e-10, 6.00959e-10, 6.072884e-10,
	6.135985e-10, 6.19892e-10, 6.2617134e-10, 6.3243905e-10,
	6.386974e-10, 6.449488e-10, 6.511956e-10, 6.5744005e-10,
	6.6368433e-10, 6.699307e-10, 6.7618144e-10, 6.824387e-10,
	6.8870465e-10, 6.949815e-10, 7.012715e-10, 7.075768e-10,
	7.1389966e-10, 7.202424e-10, 7.266073e-10, 7.329966e-10,
	7.394128e-10, 7.4585826e-10, 7.5233547e-10, 7.58847e-10,
	7.653954e-10, 7.719835e-10, 7.7861395e-10, 7.852897e-10,
	7.920138e-10, 7.987892e-10, 8.0561924e-10, 8.125073e-10,
	8.194569e-10, 8.2647167e-10, 8.3355556e-10, 8.407127e-10,
	8.479473e-10, 8.55264e-10, 8.6266755e-10, 8.7016316e-10,
	8.777562e-10, 8.8545243e-10, 8.932582e-10, 9.0117996e-10,
	9.09225e-10, 9.174008e-10, 9.2571584e-10, 9.341788e-10,
	9.427997e-10, 9.515889e-10, 9.605579e-10, 9.697193e-10,
	9.790869e-10, 9.88676e-10, 9.985036e-10, 1.0085882e-09,
	1.0189509e-09, 1.0296151e-09, 1.0406069e-09, 1.0519566e-09,
	1.063698e-09, 1.0758702e-09, 1.0885183e-09, 1.1016947e-09,
	1.1154611e-09, 1.1298902e-09, 1.1450696e-09, 1.1611052e-09,
	1.1781276e-09, 1.1962995e-09, 1.2158287e-09, 1.2369856e-09,
	1.2601323e-09, 1.2857697e-09, 1.3146202e-09, 1.347784e-09,
	1.3870636e-09, 1.4357403e-09, 1.5008659e-09, 1.6030948e-09,
}
