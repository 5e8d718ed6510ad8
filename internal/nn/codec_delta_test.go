package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"fedcross/internal/tensor"
)

func lossyCodecs(t *testing.T) []DeltaCodec {
	t.Helper()
	var out []DeltaCodec
	for _, c := range allCodecs(t) {
		if d, ok := c.(DeltaCodec); ok {
			out = append(out, d)
		} else if !c.Lossless() {
			t.Fatalf("lossy codec %s has no delta form", c.Name())
		}
	}
	return out
}

// deltaCase builds one (vec, ref) pair of length n. Kinds 0–6: a model
// delta; specials in both vectors; a non-negative residual with exact
// zeros of both signs (the range kernel's zero-sign rescan); PR 14's
// width-overflow vector; all equal; residuals on and beside the int8
// grid's k/2 points with the grid pinned to [0, 255]; and a reference of
// −0 entries, which a dropped top-k coordinate must decode as +0.
const deltaKinds = 7

func deltaCase(rng *tensor.RNG, n, kind int) (vec, ref ParamVector) {
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -1e-310,
		math.MaxFloat64, -math.MaxFloat64,
	}
	vec, ref = make(ParamVector, n), make(ParamVector, n)
	for i := range vec {
		ref[i] = rng.Normal(0, 1)
		switch kind {
		case 0:
			vec[i] = ref[i] + 0.01*rng.Normal(0, 1)
		case 1:
			vec[i] = rng.Normal(0, 3)
			if rng.Float64() < 0.2 {
				vec[i] = specials[rng.Intn(len(specials))]
			}
			if rng.Float64() < 0.1 {
				ref[i] = specials[rng.Intn(len(specials))]
			}
		case 2:
			vec[i] = []float64{math.Copysign(0, -1), 0, rng.Float64(), rng.Float64()}[rng.Intn(4)]
			ref[i] = 0
		case 3:
			vec[i] = []float64{-1.7e308, 0, 1.7e308, 3}[i%4]
			ref[i] = 0
		case 4:
			vec[i], ref[i] = 1.25, 0.25
		case 5:
			vec[i] = []float64{0, 255, 0.49999999999999994, 0.5, 254.5, float64(rng.Intn(511)) / 2,
				math.Nextafter(float64(rng.Intn(510)+1)/2, 0), math.Nextafter(float64(rng.Intn(510))/2, 256)}[(i+i/8)%8]
			ref[i] = 0
		case 6:
			vec[i] = []float64{0, math.Copysign(0, -1), rng.Normal(0, 1)}[rng.Intn(3)]
			ref[i] = math.Copysign(0, -1)
		}
	}
	return vec, ref
}

// int8FivePass is the int8 wire written out pass by pass on scalar Go —
// store the residual, scan its finite range, clamp an overflowing grid,
// math.Round onto the grid, decode each grid point, add the reference —
// the reference both the fused kernels and their twins are held to.
func int8FivePass(vec, ref ParamVector) (payload []byte, decoded ParamVector) {
	res := vec.Clone()
	for i := range ref {
		res[i] = vec[i] - ref[i]
	}
	lo, hi := finiteRangeScan(res)
	if lo > hi {
		lo, hi = 0, 0
	}
	if math.IsInf(lo+(hi-lo)/255*255, 1) {
		lo, hi = max(lo, -math.MaxFloat64/4), min(hi, math.MaxFloat64/4)
	}
	scale := (hi - lo) / 255
	payload = binary.LittleEndian.AppendUint32(nil, uint32(len(vec)))
	payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(lo))
	payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(scale))
	body := make([]byte, len(vec))
	int8QuantizeRound(body, res, lo, scale)
	payload = append(payload, body...)
	decoded = make(ParamVector, len(vec))
	for i, b := range body {
		decoded[i] = lo + scale*float64(b)
	}
	for i := range ref {
		decoded[i] += ref[i]
	}
	return payload, decoded
}

// TestDeltaCodecMatchesFivePass holds every lossy codec's delta form to
// the wire it replaced: EncodeDelta's bytes are Encode's of a stored
// vec−ref, and DecodeDelta's bits are Decode's followed by += ref — out
// of place and decoding over the encoded vector itself. int8 is also held
// to the five passes written out above, as are the scalar twins of its
// kernels, called directly so both meet the reference on every platform.
func TestDeltaCodecMatchesFivePass(t *testing.T) {
	// sameBits returns the first index where a and b differ in bits, or −1.
	// Two NaNs count as equal: which payload NaN + NaN keeps is the
	// compiler's choice of operand order, not the codec's.
	sameBits := func(a, b ParamVector) int {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
				return i
			}
		}
		return -1
	}
	rng := tensor.NewRNG(41)
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 31, 32, 33, 1023, 1024, 1025, 51978} {
		for kind := 0; kind < deltaKinds; kind++ {
			vec, fullRef := deltaCase(rng, n, kind)
			for _, ref := range []ParamVector{nil, fullRef} {
				for _, c := range lossyCodecs(t) {
					// The wire as deliver used to run it around the codec.
					res := vec.Clone()
					for i := range ref {
						res[i] = vec[i] - ref[i]
					}
					wantBytes := c.Encode(nil, res)
					want := make(ParamVector, n)
					// No encoder output is refused — not even an int8 residual
					// whose width is finite but within an ulp of MaxFloat64
					// (kind 1's ±MaxFloat64 entries), whose grid top used to
					// land on +Inf.
					if _, err := c.Decode(want, wantBytes); err != nil {
						t.Fatalf("%s n=%d kind=%d delta=%v: Decode refuses Encode's own payload: %v", c.Name(), n, kind, ref != nil, err)
					}
					for i := range ref {
						want[i] += ref[i]
					}

					gotBytes := c.EncodeDelta(nil, vec, ref)
					if !bytes.Equal(gotBytes, wantBytes) {
						t.Fatalf("%s n=%d kind=%d delta=%v: EncodeDelta's payload differs from Encode(vec−ref)", c.Name(), n, kind, ref != nil)
					}
					for _, inPlace := range []bool{false, true} {
						dst := make(ParamVector, n)
						if inPlace {
							dst = vec.Clone()
							gotBytes = c.EncodeDelta(gotBytes[:0], dst, ref)
						}
						consumed, err := c.DecodeDelta(dst, gotBytes, ref)
						if err != nil || consumed != len(gotBytes) {
							t.Fatalf("%s n=%d kind=%d: DecodeDelta consumed %d of %d bytes, err %v", c.Name(), n, kind, consumed, len(gotBytes), err)
						}
						if i := sameBits(dst, want); i >= 0 {
							t.Fatalf("%s n=%d kind=%d delta=%v inPlace=%v: element %d = %v, Decode then += ref gives %v",
								c.Name(), n, kind, ref != nil, inPlace, i, dst[i], want[i])
						}
					}

					if _, ok := c.(Int8Codec); !ok {
						continue
					}
					refBytes, refDecoded := int8FivePass(vec, ref)
					if !bytes.Equal(gotBytes, refBytes) {
						t.Fatalf("int8 n=%d kind=%d delta=%v: payload differs from the five scalar passes", n, kind, ref != nil)
					}
					if i := sameBits(want, refDecoded); i >= 0 {
						t.Fatalf("int8 n=%d kind=%d delta=%v: element %d = %v, five scalar passes give %v", n, kind, ref != nil, i, want[i], refDecoded[i])
					}
					// The twins, from the header the payload carries.
					lo := math.Float64frombits(binary.LittleEndian.Uint64(refBytes[codecHeaderBytes:]))
					scale := math.Float64frombits(binary.LittleEndian.Uint64(refBytes[codecHeaderBytes+8:]))
					body := refBytes[codecHeaderBytes+16:]
					gotLo, gotHi := tensor.DeltaRange(vec, ref)
					twinLo, twinHi := tensor.DeltaRangeGo(vec, ref)
					if math.Float64bits(gotLo) != math.Float64bits(twinLo) || math.Float64bits(gotHi) != math.Float64bits(twinHi) {
						t.Fatalf("int8 n=%d kind=%d delta=%v: DeltaRange [%v, %v], twin [%v, %v]", n, kind, ref != nil, gotLo, gotHi, twinLo, twinHi)
					}
					twinBody := make([]byte, n)
					tensor.QuantDeltaGo(twinBody, vec, ref, lo, scale)
					if !bytes.Equal(twinBody, body) {
						t.Fatalf("int8 n=%d kind=%d delta=%v: QuantDeltaGo differs from the five scalar passes", n, kind, ref != nil)
					}
					twinDst := make(ParamVector, n)
					tensor.DequantAddGo(twinDst, body, ref, lo, scale)
					if i := sameBits(twinDst, refDecoded); i >= 0 {
						t.Fatalf("int8 n=%d kind=%d delta=%v: DequantAddGo element %d = %v, five scalar passes give %v", n, kind, ref != nil, i, twinDst[i], refDecoded[i])
					}
				}
			}
		}
	}
}

// TestTopKDecodeRejectsBeforeWriting pins the contract Transport.Up's
// retry loop leans on: a payload rejected for an out-of-range index — the
// one check that used to come after the zero-fill and part of the
// scatter — leaves dst bit-unchanged, with and without a reference.
func TestTopKDecodeRejectsBeforeWriting(t *testing.T) {
	c := TopKCodec{Frac: 0.5}
	vec := ParamVector{1, -2, 3, -4, 5, -6, 7, -8}
	ref := ParamVector{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	for _, r := range []ParamVector{nil, ref} {
		buf := c.EncodeDelta(nil, vec, r)
		binary.LittleEndian.PutUint32(buf[len(buf)-8:], 1000) // the last pair's index
		dst := ParamVector{9, 9, 9, 9, 9, 9, 9, 9}
		if _, err := c.DecodeDelta(dst, buf, r); err == nil {
			t.Fatal("index 1000 of 8 accepted")
		}
		for i, v := range dst {
			if v != 9 {
				t.Fatalf("delta=%v: rejected payload wrote dst[%d] = %v (dst %v)", r != nil, i, v, dst)
			}
		}
	}
}

// TestDeltaCodecCleanRoundTripNeverFails pins the invariant the transport's
// deferred decode relies on: a payload EncodeDelta produced and nothing
// damaged is never refused by DecodeDelta — out of place or in place, for
// every lossy codec, whatever the vector and the reference hold. The
// transport decides an undamaged attempt's fate before it runs the round
// trip, so a refusal there is a codec bug and panics.
func TestDeltaCodecCleanRoundTripNeverFails(t *testing.T) {
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -1e-310,
		math.Copysign(0, -1), 65520, -65520,
	}
	rng := tensor.NewRNG(43)
	for _, n := range []int{0, 1, 7, 8, 9, 33, 51978} {
		// Vectors: each special repeated, all specials cycled, and a
		// model-sized normal vector with specials sprinkled in.
		var vecs []ParamVector
		for _, s := range specials {
			v := make(ParamVector, n)
			for i := range v {
				v[i] = s
			}
			vecs = append(vecs, v)
		}
		cycled, sprinkled := make(ParamVector, n), make(ParamVector, n)
		for i := range cycled {
			cycled[i] = specials[i%len(specials)]
			sprinkled[i] = rng.Normal(0, 1)
			if rng.Float64() < 0.1 {
				sprinkled[i] = specials[rng.Intn(len(specials))]
			}
		}
		vecs = append(vecs, cycled, sprinkled)
		finite, poisoned := make(ParamVector, n), make(ParamVector, n)
		for i := range finite {
			finite[i] = rng.Normal(0, 1)
			poisoned[i] = []float64{rng.Normal(0, 1), math.Inf(1), math.Inf(-1), math.NaN()}[i%4]
		}
		for vi, vec := range vecs {
			for ri, ref := range []ParamVector{nil, finite, poisoned} {
				for _, c := range lossyCodecs(t) {
					buf := c.EncodeDelta(nil, vec, ref)
					for _, inPlace := range []bool{false, true} {
						dst := make(ParamVector, n)
						if inPlace {
							dst = vec.Clone()
						}
						if _, err := c.DecodeDelta(dst, buf, ref); err != nil {
							t.Fatalf("%s n=%d vector %d reference %d inPlace=%v: clean payload refused: %v", c.Name(), n, vi, ri, inPlace, err)
						}
					}
				}
			}
		}
	}
}
