package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"

	"fedcross/internal/tensor"
)

func allCodecs(t *testing.T) []Codec {
	t.Helper()
	var out []Codec
	for _, name := range []string{"identity", "fp16", "int8", "topk", "topk:0.25"} {
		c, err := CodecByName(name)
		if err != nil {
			t.Fatalf("CodecByName(%q): %v", name, err)
		}
		out = append(out, c)
	}
	return out
}

func randVec(rng *tensor.RNG, n int, scale float64) ParamVector {
	v := make(ParamVector, n)
	for i := range v {
		v[i] = rng.Normal(0, scale)
	}
	return v
}

// roundTrip encodes and decodes vec through c, checking the byte count
// against EncodedSize on the way.
func roundTrip(t *testing.T, c Codec, vec ParamVector) ParamVector {
	t.Helper()
	buf := c.Encode(nil, vec)
	if got, want := int64(len(buf)), c.EncodedSize(len(vec)); got != want {
		t.Fatalf("%s: Encode produced %d bytes, EncodedSize promises %d (n=%d)", c.Name(), got, want, len(vec))
	}
	dst := make(ParamVector, len(vec))
	consumed, err := c.Decode(dst, buf)
	if err != nil {
		t.Fatalf("%s: Decode: %v", c.Name(), err)
	}
	if consumed != len(buf) {
		t.Fatalf("%s: Decode consumed %d of %d bytes", c.Name(), consumed, len(buf))
	}
	return dst
}

// TestCodecByNameRoundTrips pins that every codec's Name() resolves back
// to an equivalent codec, and that bad spellings are rejected.
func TestCodecByNameRoundTrips(t *testing.T) {
	for _, c := range allCodecs(t) {
		back, err := CodecByName(c.Name())
		if err != nil {
			t.Fatalf("CodecByName(%q): %v", c.Name(), err)
		}
		if back.Name() != c.Name() {
			t.Fatalf("name round-trip: %q -> %q", c.Name(), back.Name())
		}
	}
	for _, bad := range []string{"gzip", "topk:0", "topk:1.5", "topk:x", "int4"} {
		if _, err := CodecByName(bad); err == nil {
			t.Fatalf("CodecByName(%q) succeeded, want error", bad)
		}
	}
}

// TestCodecZeroLength pins the empty-vector path: every codec must
// round-trip a zero-length vector through a header-only payload.
func TestCodecZeroLength(t *testing.T) {
	for _, c := range allCodecs(t) {
		dst := roundTrip(t, c, ParamVector{})
		if len(dst) != 0 {
			t.Fatalf("%s: decoded %d elements from empty vector", c.Name(), len(dst))
		}
	}
}

// TestIdentityCodecBitExact pins the lossless contract on a hostile
// vector: NaN (payload bits included), ±Inf, subnormals, negative zero.
func TestIdentityCodecBitExact(t *testing.T) {
	vec := ParamVector{
		0, math.Copysign(0, -1), 1.5, -2.75, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64,
	}
	dst := roundTrip(t, IdentityCodec{}, vec)
	for i := range vec {
		if math.Float64bits(dst[i]) != math.Float64bits(vec[i]) {
			t.Fatalf("identity: element %d: %x -> %x", i, math.Float64bits(vec[i]), math.Float64bits(dst[i]))
		}
	}
	if !(IdentityCodec{}).Lossless() {
		t.Fatal("identity codec must report Lossless")
	}
}

// TestFP16CodecErrorBound pins the half-precision contract: relative
// error ≤ 2⁻¹¹ in the normal half range, Inf/NaN preserved, overflow to
// ±Inf, and exact round-trips for exactly-representable values.
func TestFP16CodecErrorBound(t *testing.T) {
	rng := tensor.NewRNG(7)
	vec := randVec(rng, 4096, 1.0)
	dst := roundTrip(t, FP16Codec{}, vec)
	for i, v := range vec {
		rel := math.Abs(dst[i]-v) / math.Abs(v)
		if rel > 1.0/2048 {
			t.Fatalf("fp16: element %d: %v -> %v, rel error %v > 2^-11", i, v, dst[i], rel)
		}
	}

	specials := ParamVector{math.NaN(), math.Inf(1), math.Inf(-1), 1e10, -1e10, 65504, 0.25, -1, 0, 2.9802322387695312e-08 /* 2^-25, ties to zero */}
	got := roundTrip(t, FP16Codec{}, specials)
	switch {
	case !math.IsNaN(got[0]):
		t.Fatalf("fp16: NaN -> %v", got[0])
	case !math.IsInf(got[1], 1) || !math.IsInf(got[2], -1):
		t.Fatalf("fp16: Inf -> %v, %v", got[1], got[2])
	case !math.IsInf(got[3], 1) || !math.IsInf(got[4], -1):
		t.Fatalf("fp16: overflow -> %v, %v (want ±Inf)", got[3], got[4])
	case got[5] != 65504:
		t.Fatalf("fp16: max finite half 65504 -> %v", got[5])
	case got[6] != 0.25 || got[7] != -1 || got[8] != 0:
		t.Fatalf("fp16: exact values drifted: %v", got[6:9])
	case got[9] != 0:
		t.Fatalf("fp16: 2^-25 -> %v, want 0 (round to even)", got[9])
	}
}

// TestInt8CodecErrorBound pins the affine quantization contract: every
// finite value decodes within (max−min)/510 of itself, non-finite inputs
// clamp onto the finite grid, and an all-equal vector (scale 0) is exact.
func TestInt8CodecErrorBound(t *testing.T) {
	rng := tensor.NewRNG(11)
	vec := randVec(rng, 4096, 3.0)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vec {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	bound := (hi - lo) / 510 * (1 + 1e-12)
	dst := roundTrip(t, Int8Codec{}, vec)
	for i, v := range vec {
		if math.Abs(dst[i]-v) > bound {
			t.Fatalf("int8: element %d: %v -> %v, error %v > %v", i, v, dst[i], math.Abs(dst[i]-v), bound)
		}
	}

	// Range endpoints land on grid points: exact up to the one float64
	// rounding in lo + 255·((hi−lo)/255).
	ulps := func(a, b float64) float64 {
		return math.Abs(a-b) / (math.Nextafter(math.Abs(b), math.Inf(1)) - math.Abs(b))
	}
	if got := roundTrip(t, Int8Codec{}, ParamVector{lo, hi, (lo + hi) / 2}); got[0] != lo || ulps(got[1], hi) > 4 {
		t.Fatalf("int8: endpoints drifted: %v -> %v, %v -> %v", lo, got[0], hi, got[1])
	}

	// Non-finite inputs clamp onto the finite range; the wire is finite.
	specials := ParamVector{math.Inf(1), math.Inf(-1), math.NaN(), -2, 2}
	got := roundTrip(t, Int8Codec{}, specials)
	switch {
	case ulps(got[0], 2) > 4:
		t.Fatalf("int8: +Inf -> %v, want max 2", got[0])
	case got[1] != -2:
		t.Fatalf("int8: -Inf -> %v, want min -2", got[1])
	case got[2] != -2:
		t.Fatalf("int8: NaN -> %v, want min -2", got[2])
	}
}

// TestInt8CodecDegenerate pins the scale=0 edge cases: all-equal vectors
// round-trip exactly, and an all-non-finite vector decodes to zeros.
func TestInt8CodecDegenerate(t *testing.T) {
	allEqual := ParamVector{1.25, 1.25, 1.25, 1.25}
	got := roundTrip(t, Int8Codec{}, allEqual)
	for i, v := range got {
		if v != 1.25 {
			t.Fatalf("int8 all-equal: element %d: %v", i, v)
		}
	}
	noFinite := ParamVector{math.NaN(), math.Inf(1), math.Inf(-1)}
	got = roundTrip(t, Int8Codec{}, noFinite)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("int8 no-finite: element %d: %v, want 0", i, v)
		}
	}
}

// int8QuantizeRound is the quantise loop as it was written before it
// dropped math.Round — the reference the kernels' bytes are held to.
func int8QuantizeRound(dst []byte, src ParamVector, lo, scale float64) {
	for i, v := range src {
		q := 0.0
		if scale > 0 {
			q = math.Round((v - lo) / scale)
		}
		if !(q >= 0) {
			q = 0
		} else if q > 255 {
			q = 255
		}
		dst[i] = byte(q)
	}
}

// int8Quantizers are the quantise kernel as dispatched (the AVX2 assembly
// where the CPU has it) and its scalar twin; int8Rangers likewise.
var int8Quantizers = map[string]func(dst []byte, v, ref []float64, lo, scale float64){
	"QuantDelta": tensor.QuantDelta, "QuantDeltaGo": tensor.QuantDeltaGo,
}

var int8Rangers = map[string]func(v, ref []float64) (float64, float64){
	"DeltaRange": tensor.DeltaRange, "DeltaRangeGo": tensor.DeltaRangeGo,
}

// TestInt8QuantizeMatchesRound pins the quantise kernels byte for byte
// against the math.Round loop: at and around every rounding boundary,
// across twenty decades of scale, and on every special value and
// degenerate scale — without a reference, and with one whose residual
// (formed here, rounding and all) is what the Round loop is given.
func TestInt8QuantizeMatchesRound(t *testing.T) {
	check := func(name string, src ParamVector, lo, scale float64) {
		t.Helper()
		ref := make(ParamVector, len(src))
		res := make(ParamVector, len(src))
		for i, v := range src {
			ref[i] = 0.25 * v
			res[i] = v - ref[i]
		}
		got, want := make([]byte, len(src)), make([]byte, len(src))
		for kernel, quantize := range int8Quantizers {
			for _, c := range []struct{ ref, residual ParamVector }{{nil, src}, {ref, res}} {
				quantize(got, src, c.ref, lo, scale)
				int8QuantizeRound(want, c.residual, lo, scale)
				for i := range src {
					if got[i] != want[i] {
						t.Fatalf("%s/%s (delta %v): v=%v lo=%v scale=%v (x=%v): got %d, math.Round gives %d",
							name, kernel, c.ref != nil, c.residual[i], lo, scale, (c.residual[i]-lo)/scale, got[i], want[i])
					}
				}
			}
		}
	}
	// nudge moves v by ulps steps toward +Inf (positive) or -Inf.
	nudge := func(v float64, ulps int) float64 {
		for ; ulps > 0; ulps-- {
			v = math.Nextafter(v, math.Inf(1))
		}
		for ; ulps < 0; ulps++ {
			v = math.Nextafter(v, math.Inf(-1))
		}
		return v
	}
	specials := ParamVector{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -1e-310,
		math.MaxFloat64, -math.MaxFloat64, 0.49999999999999994,
	}

	// With lo = 0 and scale = 1, x is v itself: every integer and every
	// half-integer of the grid (and one past it), ±0, ±1 and ±2 ulp.
	var boundaries ParamVector
	for k := 0; k <= 256; k++ {
		for _, base := range []float64{float64(k), float64(k) + 0.5} {
			for ulps := -2; ulps <= 2; ulps++ {
				boundaries = append(boundaries, nudge(base, ulps))
			}
		}
	}
	check("boundaries", boundaries, 0, 1)
	check("specials", specials, 0, 1)

	rng := tensor.NewRNG(23)
	for trial := 0; trial < 200; trial++ {
		scale := math.Pow(10, -10+20*rng.Float64())
		lo := rng.Normal(0, 1) * scale * 100
		src := make(ParamVector, 0, len(boundaries)+len(specials)+64)
		for _, x := range boundaries {
			src = append(src, lo+x*scale) // lands near the boundary, rounding and all
		}
		for i := 0; i < 64; i++ {
			src = append(src, lo+scale*(300*rng.Float64()-20))
		}
		src = append(src, specials...)
		check("random grid", src, lo, scale)
	}

	for _, scale := range []float64{0, math.Inf(1), math.NaN(), -1} {
		check("degenerate scale", append(boundaries[:40:40], specials...), 0, scale)
		check("degenerate scale", append(boundaries[:40:40], specials...), -3.5, scale)
	}
}

// finiteRangeScan is the range scan as it was written before the one-compare
// screen — math.IsInf/IsNaN, strict compares, ascending — the reference
// the range kernels are held to.
func finiteRangeScan(res ParamVector) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range res {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// TestFiniteRangeScreensNonFinite holds the range kernels' one-compare
// screen to the math.IsInf/IsNaN scan it replaced, with the non-finite
// values placed where they would win the range if they were let through —
// as they stand, repeated past the assembly's block length, and as one
// side of a residual (formed here) whose reference has non-finite entries
// of its own.
func TestFiniteRangeScreensNonFinite(t *testing.T) {
	for _, vec := range []ParamVector{
		{},
		{math.NaN(), math.Inf(1), math.Inf(-1)},
		{math.Inf(-1), 3, math.NaN(), -2, math.Inf(1), 7, math.NaN()},
		{math.NaN(), math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64},
		{math.MaxFloat64, math.Inf(1), -math.MaxFloat64, math.Inf(-1)},
	} {
		long := slices.Concat(vec, vec, vec, vec, vec)
		ref, res := make(ParamVector, len(long)), make(ParamVector, len(long))
		for i, v := range long {
			ref[i] = []float64{1, -0.5, math.Inf(1), 0, math.NaN(), -math.MaxFloat64, math.Inf(-1)}[i%7]
			res[i] = v - ref[i]
		}
		for kernel, finiteRange := range int8Rangers {
			for _, c := range []struct {
				name               string
				vec, ref, residual ParamVector
			}{{"plain", vec, nil, vec}, {"long", long, nil, long}, {"delta", long, ref, res}} {
				wantLo, wantHi := finiteRangeScan(c.residual)
				lo, hi := finiteRange(c.vec, c.ref)
				if math.Float64bits(lo) != math.Float64bits(wantLo) || math.Float64bits(hi) != math.Float64bits(wantHi) {
					t.Fatalf("%s %s(%v) = [%v, %v], want [%v, %v]", kernel, c.name, c.residual, lo, hi, wantLo, wantHi)
				}
			}
		}
	}
}

// TestInt8CodecRangeOverflow pins the fix for a finite range whose width
// overflows: (hi−lo)/255 was +Inf, and every coordinate decoded to
// lo + Inf·0 = NaN with a nil error. The grid is now clamped to
// ±MaxFloat64/4, so the decode is finite, out-of-grid values land on the
// end points, and in-grid values keep the (hi−lo)/510 bound.
func TestInt8CodecRangeOverflow(t *testing.T) {
	vec := ParamVector{-1.7e308, 0, 1.7e308, 3}
	got := roundTrip(t, Int8Codec{}, vec)
	lo, hi := -math.MaxFloat64/4, math.MaxFloat64/4
	bound := (hi - lo) / 510 * (1 + 1e-12)
	for i, v := range got {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("int8 overflow: element %d decoded to %v (all: %v)", i, v, got)
		}
		want := math.Max(lo, math.Min(hi, vec[i]))
		if math.Abs(v-want) > bound {
			t.Fatalf("int8 overflow: element %d: %v -> %v, want within %v of %v", i, vec[i], v, bound, want)
		}
	}
	// One end beyond the clamp is enough to overflow the width.
	got = roundTrip(t, Int8Codec{}, ParamVector{-math.MaxFloat64, 1e308, math.NaN()})
	for i, v := range got {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("int8 one-sided overflow: element %d decoded to %v", i, v)
		}
	}
	// A width that is finite can still put the grid's top, lo + 255·scale,
	// at +Inf — a header Decode refuses. Those ranges are clamped too, and
	// decode within the clamped grid's bound.
	for _, vec := range []ParamVector{
		{math.MaxFloat64, 0, 1, 2},
		{-math.MaxFloat64, 0.5, 1},
		{-math.MaxFloat64 / 2, math.MaxFloat64 / 2, 0},
	} {
		for i, v := range roundTrip(t, Int8Codec{}, vec) {
			want := math.Max(lo, math.Min(hi, vec[i]))
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v-want) > bound {
				t.Fatalf("int8 grid-top overflow %v: element %d decoded to %v, want within %v of %v", vec, i, v, bound, want)
			}
		}
	}
	// A wide range whose grid top is finite is not touched.
	edge := ParamVector{-math.MaxFloat64 / 2, math.MaxFloat64 / 4, 0}
	buf := Int8Codec{}.Encode(nil, edge)
	if got := math.Float64frombits(binary.LittleEndian.Uint64(buf[codecHeaderBytes:])); got != edge[0] {
		t.Fatalf("int8: finite grid re-clamped: lo %v, want %v", got, edge[0])
	}
	if got := roundTrip(t, Int8Codec{}, edge); math.Abs(got[1]-edge[1]) > (edge[1]-edge[0])/510*(1+1e-12) {
		t.Fatalf("int8: finite grid: %v decoded to %v", edge[1], got[1])
	}
}

// TestTopKCodecSelection pins sparsification: exactly ⌈frac·n⌉ entries
// survive, they are the largest magnitudes with ties broken toward lower
// indices, kept values carry at most float32 rounding error, dropped
// entries decode to zero, and a NaN coordinate is always shipped.
func TestTopKCodecSelection(t *testing.T) {
	c := TopKCodec{Frac: 0.25}
	vec := ParamVector{0.1, -5, 0.2, 3, -0.3, 0.5, 4, -0.05} // n=8 -> keep 2: -5 and 4
	got := roundTrip(t, c, vec)
	want := ParamVector{0, -5, 0, 0, 0, 0, 4, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("topk: element %d: %v, want %v (full %v)", i, got[i], want[i], got)
		}
	}

	// Ties: all-equal magnitudes keep the lowest indices.
	ties := ParamVector{1, -1, 1, -1}
	got = roundTrip(t, TopKCodec{Frac: 0.5}, ties)
	if got[0] != 1 || got[1] != -1 || got[2] != 0 || got[3] != 0 {
		t.Fatalf("topk ties: %v, want [1 -1 0 0]", got)
	}

	// NaN sorts above everything: it must be shipped, not dropped.
	poisoned := ParamVector{1, math.NaN(), 2, 3}
	got = roundTrip(t, TopKCodec{Frac: 0.25}, poisoned)
	if !math.IsNaN(got[1]) {
		t.Fatalf("topk: NaN coordinate dropped: %v", got)
	}

	// Kept values are float32-rounded, nothing worse.
	rng := tensor.NewRNG(3)
	dense := randVec(rng, 1000, 1.0)
	got = roundTrip(t, TopKCodec{Frac: 0.1}, dense)
	kept := 0
	for i, v := range got {
		if v == 0 {
			continue
		}
		kept++
		if v != float64(float32(dense[i])) {
			t.Fatalf("topk: kept element %d: %v, want float32(%v)", i, v, dense[i])
		}
	}
	if kept != 100 {
		t.Fatalf("topk: kept %d of 1000, want 100", kept)
	}
}

// TestCodecDecodeRejectsGarbage pins the defensive paths: wrong
// destination length, truncated bodies, and out-of-range topk indices
// must error, never panic or write out of bounds.
func TestCodecDecodeRejectsGarbage(t *testing.T) {
	rng := tensor.NewRNG(5)
	vec := randVec(rng, 64, 1.0)
	for _, c := range allCodecs(t) {
		buf := c.Encode(nil, vec)
		if _, err := c.Decode(make(ParamVector, 63), buf); err == nil {
			t.Fatalf("%s: decode into short destination succeeded", c.Name())
		}
		if _, err := c.Decode(make(ParamVector, 64), buf[:len(buf)-1]); err == nil {
			t.Fatalf("%s: decode of truncated body succeeded", c.Name())
		}
		if _, err := c.Decode(make(ParamVector, 64), buf[:2]); err == nil {
			t.Fatalf("%s: decode of truncated header succeeded", c.Name())
		}
	}
}

// TestFloat16KernelExhaustive round-trips every representable half value
// through the tensor conversion kernels: expand to float64, re-encode,
// and require the identical bit pattern (NaN excepted — any NaN encoding
// is acceptable as long as it stays NaN).
func TestFloat16KernelExhaustive(t *testing.T) {
	for bits := 0; bits <= 0xffff; bits++ {
		b := uint16(bits)
		v := tensor.Float16From(b)
		back := tensor.Float16Bits(v)
		if math.IsNaN(v) {
			if back&0x7c00 != 0x7c00 || back&0x03ff == 0 {
				t.Fatalf("bits %#04x: NaN re-encoded as %#04x (not NaN)", b, back)
			}
			continue
		}
		if back != b {
			t.Fatalf("bits %#04x -> %v -> %#04x", b, v, back)
		}
	}
}

// TestSelectNthMatchesSort pins the quickselect threshold against the
// full sort it replaced, across the shapes that break naive pivoting:
// random, sorted both ways, all-equal, two-valued plateaus (the shape
// delta-encoded payloads produce), and single elements.
func TestSelectNthMatchesSort(t *testing.T) {
	rng := tensor.NewRNG(11)
	shapes := map[string]func(n int) []float64{
		"random": func(n int) []float64 { return randVec(rng, n, 1) },
		"sorted": func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(i)
			}
			return v
		},
		"reversed": func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(n - i)
			}
			return v
		},
		"all-equal": func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = 7
			}
			return v
		},
		"plateau": func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				if rng.Float64() < 0.9 {
					v[i] = 0 // zero residuals under delta encoding
				} else {
					v[i] = rng.Normal(0, 1)
				}
			}
			return v
		},
		"infs": func(n int) []float64 {
			v := randVec(rng, n, 1)
			v[0] = math.Inf(1) // topkMag(NaN)
			v[n/2] = math.Inf(1)
			return v
		},
	}
	for name, mk := range shapes {
		for _, n := range []int{1, 2, 3, 17, 1000} {
			v := mk(n)
			want := append([]float64(nil), v...)
			sort.Float64s(want)
			for _, nth := range []int{0, n / 3, n - 1} {
				got := selectNth(append([]float64(nil), v...), nth)
				if got != want[nth] {
					t.Fatalf("%s n=%d: selectNth(%d) = %v, want %v", name, n, nth, got, want[nth])
				}
			}
		}
	}
}

// TestTopKQuickselectMatchesSortContract re-derives the emitted set with
// the original sort-based threshold on a large random payload and checks
// the quickselect encoder ships exactly the same (index, value) pairs.
func TestTopKQuickselectMatchesSortContract(t *testing.T) {
	rng := tensor.NewRNG(12)
	vec := randVec(rng, 4096, 1)
	// Inject magnitude ties so the tie-break path is exercised at scale.
	for i := 0; i < 4096; i += 7 {
		vec[i] = 0.25
	}
	c := TopKCodec{Frac: 0.1}
	got := roundTrip(t, c, vec)

	mags := make([]float64, len(vec))
	for i, v := range vec {
		mags[i] = topkMag(v)
	}
	sort.Float64s(mags)
	thresh := mags[len(vec)-c.Keep(len(vec))]
	want := make(ParamVector, len(vec))
	left := c.Keep(len(vec))
	for i, v := range vec {
		if left > 0 && topkMag(v) > thresh {
			want[i] = float64(float32(v))
			left--
		}
	}
	for i, v := range vec {
		if left == 0 {
			break
		}
		if topkMag(v) == thresh {
			want[i] = float64(float32(v))
			left--
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: quickselect ships %v, sort contract %v", i, got[i], want[i])
		}
	}
}

// TestInt8RangeManyWorkers pins the chunk-combine fix: when the worker
// count exceeds the number of chunks actually dispatched (payload just
// past the parallel threshold, huge CodecWorkers), the undispatched
// combine slots must not contribute phantom zeros to the range.
func TestInt8RangeManyWorkers(t *testing.T) {
	defer func(w int) { CodecWorkers = w }(CodecWorkers)
	vec := make(ParamVector, minParallelCodec+1)
	for i := range vec {
		vec[i] = 5 + float64(i%7)/7 // all values in [5, 6): lo must be 5
	}
	CodecWorkers = 1
	wantLo, wantHi := int8Range(vec, nil)
	for _, workers := range []int{2, 129, 192, 1024} {
		CodecWorkers = workers
		lo, hi := int8Range(vec, nil)
		if lo != wantLo || hi != wantHi {
			t.Fatalf("workers=%d: range [%v, %v], serial [%v, %v]", workers, lo, hi, wantLo, wantHi)
		}
	}
}

// TestCodecParallelismInvariance pins the chunk-parallel kernels: encoded
// bytes and decoded vectors are byte-identical with the fan-out disabled
// and at a worker count that forces several chunks on a payload past the
// parallel threshold.
func TestCodecParallelismInvariance(t *testing.T) {
	defer func(w int) { CodecWorkers = w }(CodecWorkers)
	rng := tensor.NewRNG(13)
	vec := randVec(rng, minParallelCodec+513, 1)
	vec[1] = math.NaN()
	vec[2] = math.Inf(1)
	vec[3] = math.Inf(-1)
	for _, c := range allCodecs(t) {
		CodecWorkers = 1
		serialBuf := c.Encode(nil, vec)
		serialDst := make(ParamVector, len(vec))
		if _, err := c.Decode(serialDst, serialBuf); err != nil {
			t.Fatalf("%s serial decode: %v", c.Name(), err)
		}
		CodecWorkers = 8
		parBuf := c.Encode(nil, vec)
		parDst := make(ParamVector, len(vec))
		if _, err := c.Decode(parDst, parBuf); err != nil {
			t.Fatalf("%s parallel decode: %v", c.Name(), err)
		}
		if !bytes.Equal(serialBuf, parBuf) {
			t.Fatalf("%s: parallel encode differs from serial", c.Name())
		}
		for i := range serialDst {
			s, p := serialDst[i], parDst[i]
			if s != p && !(math.IsNaN(s) && math.IsNaN(p)) {
				t.Fatalf("%s: decoded element %d: parallel %v, serial %v", c.Name(), i, p, s)
			}
		}
	}
}
