package nn

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// FuzzCodecDecode holds every wire codec's Decode to its contract on
// arbitrary bytes: an error that leaves dst bit-unchanged, or a
// consumed-byte count in [4, len(data)] equal to EncodedSize(len(dst))
// with every element of dst written (and, for int8, finite) — never a
// panic, never a write outside dst, never an allocation sized by a header
// field. The lossy codecs' DecodeDelta is held to the same contract with
// a non-nil reference, and to agreeing with Decode: the same verdict, and
// on success Decode's vector plus the reference, bit for bit. Seeds are
// one valid payload per codec and destination length,
// TestCodecDecodeRejectsGarbage's cases (wrong-length destination,
// truncated body, truncated header), PR 14's range-width-overflow int8
// vector, one whose width is finite but whose grid top was not, and an
// int8 header no encoder emits, whose grid overflows to +Inf.
func FuzzCodecDecode(f *testing.F) {
	names := []string{"identity", "fp16", "int8", "topk", "topk:0.05"}
	sizes := []int{0, 1, 7, 1024}
	codecs := make([]Codec, len(names))
	for ci, name := range names {
		c, err := CodecByName(name)
		if err != nil {
			f.Fatal(err)
		}
		codecs[ci] = c
		for si, n := range sizes {
			vec := make(ParamVector, n)
			for i := range vec {
				vec[i] = math.Sin(float64(i)) * 3
			}
			buf := c.Encode(nil, vec)
			f.Add(uint8(ci), uint8(si), buf)
			f.Add(uint8(ci), uint8((si+1)%len(sizes)), buf) // wrong destination length
			f.Add(uint8(ci), uint8(si), buf[:len(buf)-1])   // truncated body (or header at n=0)
			f.Add(uint8(ci), uint8(si), buf[:2])            // truncated header
		}
	}
	wide := Int8Codec{}.Encode(nil, ParamVector{-1.7e308, 0, 1.7e308, 3, -math.MaxFloat64, 1e308, math.NaN()})
	f.Add(uint8(2), uint8(2), wide)
	f.Add(uint8(2), uint8(2), Int8Codec{}.Encode(nil, ParamVector{math.MaxFloat64, 0, 1, 2, 3, 4, 5})) // finite width, grid top clamped
	hostile := append([]byte(nil), wide...)
	binary.LittleEndian.PutUint64(hostile[codecHeaderBytes:], math.Float64bits(1e308))
	binary.LittleEndian.PutUint64(hostile[codecHeaderBytes+8:], math.Float64bits(1e308))
	f.Add(uint8(2), uint8(2), hostile)

	// unwritten is a NaN no decoder produces by arithmetic; only the
	// bit-exact identity codec could copy it out of a payload.
	unwritten := math.Float64frombits(0x7ff8c0dec0dec0de)
	isUnwritten := func(v float64) bool { return math.Float64bits(v) == math.Float64bits(unwritten) }
	f.Fuzz(func(t *testing.T, ci, si uint8, data []byte) {
		c := codecs[int(ci)%len(codecs)]
		n := sizes[int(si)%len(sizes)]
		ref := make(ParamVector, n)
		for i := range ref {
			ref[i] = math.Cos(float64(i)) - 0.5
		}
		// decode runs one decoder under the checks both forms share and
		// returns its destination, or nil when it refused the payload.
		decode := func(form string, dec func(dst ParamVector) (int, error)) ParamVector {
			// dst sits between two guard elements with its capacity cut to
			// its length, so a decoder cannot reach past it even by
			// reslicing.
			back := make(ParamVector, n+2)
			for i := range back {
				back[i] = unwritten
			}
			dst := back[1 : n+1 : n+1]
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			consumed, err := dec(dst)
			runtime.ReadMemStats(&after)
			// The destination is the caller's: a decode has nothing to
			// allocate beyond an error value, whatever the header claims.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
				t.Fatalf("%s: %s of %d bytes into %d elements allocated %d bytes", c.Name(), form, len(data), n, grew)
			}
			if !isUnwritten(back[0]) || !isUnwritten(back[n+1]) {
				t.Fatalf("%s: %s wrote outside dst (guards %v, %v)", c.Name(), form, back[0], back[n+1])
			}
			if err != nil {
				// The engines decode an upload over the vector a retry
				// re-encodes: a rejection must not have touched it.
				for i, v := range dst {
					if !isUnwritten(v) {
						t.Fatalf("%s: %s rejected the payload (%v) after writing element %d", c.Name(), form, err, i)
					}
				}
				return nil
			}
			if consumed < codecHeaderBytes || consumed > len(data) || int64(consumed) != c.EncodedSize(n) {
				t.Fatalf("%s: %s consumed %d of %d bytes, EncodedSize(%d) = %d", c.Name(), form, consumed, len(data), n, c.EncodedSize(n))
			}
			for i, v := range dst {
				if isUnwritten(v) {
					t.Fatalf("%s: %s left element %d of %d unwritten", c.Name(), form, i, n)
				}
			}
			return dst
		}

		plain := decode("Decode", func(dst ParamVector) (int, error) { return c.Decode(dst, data) })
		if _, int8 := c.(Int8Codec); int8 {
			for i, v := range plain {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("int8: element %d decoded to %v (lo %v, scale %v)", i, v,
						math.Float64frombits(binary.LittleEndian.Uint64(data[codecHeaderBytes:])),
						math.Float64frombits(binary.LittleEndian.Uint64(data[codecHeaderBytes+8:])))
				}
			}
		}
		d, ok := c.(DeltaCodec)
		if !ok {
			return
		}
		delta := decode("DecodeDelta", func(dst ParamVector) (int, error) { return d.DecodeDelta(dst, data, ref) })
		if (plain == nil) != (delta == nil) {
			t.Fatalf("%s: Decode accepted = %v, DecodeDelta accepted = %v", c.Name(), plain != nil, delta != nil)
		}
		for i := range delta {
			if want := plain[i] + ref[i]; math.Float64bits(delta[i]) != math.Float64bits(want) {
				t.Fatalf("%s: DecodeDelta element %d = %v, Decode + ref = %v", c.Name(), i, delta[i], want)
			}
		}
	})
}
