package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"fedcross/internal/tensor"
)

// CodecWorkers is the number of goroutines one encode or decode of a
// large payload may fan out over (0 or 1 disables parallelism). Small
// payloads always run serially, so the per-exchange cost of the threshold
// check is a single comparison. Like tensor.MatMulWorkers, the fan-out is
// element-chunked with fixed boundaries per (length, workers), and every
// element's bytes are a pure function of its value — so encoded payloads
// and decoded vectors are bit-identical at every worker count.
var CodecWorkers = runtime.GOMAXPROCS(0)

// minParallelCodec is the element count below which an encode/decode pass
// is not worth fanning out: where a two-way pass of the int8 kernels
// clearly beats the serial one. Measured on the reference box (2 vCPU,
// Xeon 2.1 GHz), range + quantise + dequantise against a reference, 16
// vectors cycled so they arrive cold, serial vs 2-way: n = 51,978
// (server_heavy_k64's model) 97–104 µs vs 146–158 µs; 2^16 126–150 vs
// 173–185 µs; 2^17 302–371 vs 292–312 µs, a tie bought with twice the
// CPU; 2^18 673–825 vs 527–577 µs; 2^20 4.43–4.85 vs 2.88–2.94 ms. Below
// 2^18 the three fork-joins cost what two workers save. top-k's one
// fanned-out pass (the magnitudes) shares it: its encode is the serial
// radix selection and read the same at 1 and 2 workers at every size
// tried (2^14 … 2^18).
const minParallelCodec = 1 << 18

// minParallelFP16 is the threshold of the fp16 passes, which are scalar
// Go at some twenty times the int8 kernels' cost per element and so repay
// a fork-join much earlier. Same box and method, encode + decode, serial
// vs 2-way: n = 2^14 353 vs 401 µs; 51,978 1.17 vs 0.77 ms; 2^16 1.60 vs
// 1.07 ms.
const minParallelFP16 = 1 << 15

// codecWorkers resolves the fan-out for an n-element pass whose threshold
// is minN.
func codecWorkers(n, minN int) int {
	w := CodecWorkers
	if n < minN || w < 1 {
		return 1
	}
	return w
}

// refChunk is ref[i0:i1], or nil when there is no delta reference.
func refChunk(ref ParamVector, i0, i1 int) ParamVector {
	if ref == nil {
		return nil
	}
	return ref[i0:i1]
}

// codecGrow extends buf by n bytes in place (contents unspecified) and
// returns the extension alongside the full slice — the destination the
// chunk-parallel kernels fill, since concurrent writers cannot append.
func codecGrow(buf []byte, n int) (ext, all []byte) {
	off := len(buf)
	buf = slices.Grow(buf, n)[:off+n]
	return buf[off:], buf
}

// A Codec turns a ParamVector into wire bytes and back — the compression
// layer of the simulated FL transport. All four built-in codecs emit a
// content-independent byte count for a given element count (EncodedSize),
// which is what lets the transport charge byte-accurate network costs and
// decide straggler deadlines without inspecting payloads.
//
// Encode appends to buf (pass buf[:0] to recycle a scratch buffer);
// Decode writes into a caller-owned destination. Neither retains its
// arguments, so both compose with the recycled-buffer discipline of the
// round engine (docs/ARCHITECTURE.md, "Buffer ownership").
type Codec interface {
	// Name is the flag-facing identifier ("identity", "fp16", "int8",
	// "topk:0.1"); CodecByName(Name()) reconstructs the codec.
	Name() string
	// Lossless reports whether Decode∘Encode is bit-exact for every input.
	// The transport uses it to skip the encode/decode copy entirely — the
	// identity wire is a zero-copy pass-through, preserving today's
	// histories and allocation profile exactly.
	Lossless() bool
	// EncodedSize returns the exact number of bytes Encode appends for an
	// n-element vector. It is content-independent for every built-in codec.
	EncodedSize(n int) int64
	// Encode appends vec's encoded form to buf and returns the extended
	// slice.
	Encode(buf []byte, vec ParamVector) []byte
	// Decode reconstructs an encoded vector into dst, whose length must
	// equal the encoded element count, and returns the bytes consumed.
	Decode(dst ParamVector, data []byte) (int, error)
}

// A DeltaCodec is a lossy codec that takes the delta reference itself:
// EncodeDelta's payload is that of vec−ref and DecodeDelta yields the
// decoded residual plus ref, both formed element by element inside the
// codec's own passes — no residual vector exists on either side. A nil
// ref means no delta, and Encode / Decode are exactly that spelling, so a
// codec has one kernel path. Every built-in lossy codec implements it;
// the simulated transport requires it of any codec that is not Lossless.
//
// Two rules hold for every implementation. A rejected payload leaves dst
// bit-unchanged: every check on data runs before the first write, because
// the engines decode an upload in place over the vector a retry
// re-encodes. And dst may be the vector the payload was encoded from (an
// encode finishes before its decode starts) but must never overlap ref.
type DeltaCodec interface {
	Codec
	// EncodeDelta appends the encoded form of vec−ref to buf. ref is nil
	// or as long as vec.
	EncodeDelta(buf []byte, vec, ref ParamVector) []byte
	// DecodeDelta reconstructs decoded+ref into dst and returns the bytes
	// consumed. ref is nil or as long as dst.
	DecodeDelta(dst ParamVector, data []byte, ref ParamVector) (int, error)
}

// checkRef panics on a delta reference of the wrong length — a caller
// bug, never an input condition.
func checkRef(n int, ref ParamVector, codec string) {
	if ref != nil && len(ref) != n {
		panic(fmt.Sprintf("nn: %s: delta reference length %d != vector %d", codec, len(ref), n))
	}
}

// CodecByName resolves a codec from its flag spelling: "identity" (or
// ""), "fp16", "int8", "topk" (default keep fraction 0.1) or
// "topk:<frac>" with frac ∈ (0, 1].
func CodecByName(name string) (Codec, error) {
	switch name {
	case "", "identity":
		return IdentityCodec{}, nil
	case "fp16":
		return FP16Codec{}, nil
	case "int8":
		return Int8Codec{}, nil
	case "topk":
		return TopKCodec{Frac: 0.1}, nil
	}
	if rest, ok := strings.CutPrefix(name, "topk:"); ok {
		frac, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			return nil, fmt.Errorf("nn: bad topk fraction %q: %w", rest, err)
		}
		if frac <= 0 || frac > 1 {
			return nil, fmt.Errorf("nn: topk fraction %v outside (0, 1]", frac)
		}
		return TopKCodec{Frac: frac}, nil
	}
	return nil, fmt.Errorf("nn: unknown codec %q (want identity, fp16, int8 or topk[:frac])", name)
}

// Every codec leads with a uint32 element count so a payload is
// self-describing (checkpoints can be stored wire-encoded) and Decode can
// reject a destination of the wrong length before touching the body.
const codecHeaderBytes = 4

func putCount(buf []byte, n int) []byte {
	var hdr [codecHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(n))
	return append(buf, hdr[:]...)
}

func checkCount(dst ParamVector, data []byte, codec string) error {
	if len(data) < codecHeaderBytes {
		return fmt.Errorf("nn: %s: truncated header (%d bytes)", codec, len(data))
	}
	if n := binary.LittleEndian.Uint32(data); int(n) != len(dst) {
		return fmt.Errorf("nn: %s: payload has %d elements, destination %d", codec, n, len(dst))
	}
	return nil
}

// IdentityCodec ships raw float64 bits: 8 bytes per parameter, bit-exact
// (NaN payloads included) — the lossless reference wire.
type IdentityCodec struct{}

// Name implements Codec.
func (IdentityCodec) Name() string { return "identity" }

// Lossless implements Codec.
func (IdentityCodec) Lossless() bool { return true }

// EncodedSize implements Codec.
func (IdentityCodec) EncodedSize(n int) int64 { return codecHeaderBytes + 8*int64(n) }

// Encode implements Codec.
func (IdentityCodec) Encode(buf []byte, vec ParamVector) []byte {
	buf = putCount(buf, len(vec))
	var w [8]byte
	for _, v := range vec {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		buf = append(buf, w[:]...)
	}
	return buf
}

// Decode implements Codec.
func (c IdentityCodec) Decode(dst ParamVector, data []byte) (int, error) {
	if err := checkCount(dst, data, "identity"); err != nil {
		return 0, err
	}
	want := int(c.EncodedSize(len(dst)))
	if len(data) < want {
		return 0, fmt.Errorf("nn: identity: body truncated (%d of %d bytes)", len(data), want)
	}
	body := data[codecHeaderBytes:]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return want, nil
}

// FP16Codec ships IEEE binary16: 2 bytes per parameter, ≤ 2⁻¹¹ relative
// rounding error in the normal half range, ±Inf beyond it, Inf/NaN
// preserved.
type FP16Codec struct{}

// Name implements Codec.
func (FP16Codec) Name() string { return "fp16" }

// Lossless implements Codec.
func (FP16Codec) Lossless() bool { return false }

// EncodedSize implements Codec.
func (FP16Codec) EncodedSize(n int) int64 { return codecHeaderBytes + 2*int64(n) }

// Encode implements Codec.
func (c FP16Codec) Encode(buf []byte, vec ParamVector) []byte { return c.EncodeDelta(buf, vec, nil) }

// Decode implements Codec.
func (c FP16Codec) Decode(dst ParamVector, data []byte) (int, error) {
	return c.DecodeDelta(dst, data, nil)
}

// EncodeDelta implements DeltaCodec.
func (FP16Codec) EncodeDelta(buf []byte, vec, ref ParamVector) []byte {
	checkRef(len(vec), ref, "fp16")
	buf = putCount(buf, len(vec))
	body, buf := codecGrow(buf, 2*len(vec))
	if workers := codecWorkers(len(vec), minParallelFP16); workers > 1 {
		tensor.ParallelChunks(len(vec), workers, func(_, i0, i1 int) {
			fp16EncodeDelta(body[2*i0:], vec[i0:i1], refChunk(ref, i0, i1))
		})
	} else {
		fp16EncodeDelta(body, vec, ref)
	}
	return buf
}

// fp16EncodeDelta writes the binary16 form of vec−ref into dst, forming
// the residual a block at a time on the stack.
func fp16EncodeDelta(dst []byte, vec, ref ParamVector) {
	if ref == nil {
		tensor.Float16EncodeSlice(dst, vec)
		return
	}
	var res [256]float64
	for i0 := 0; i0 < len(vec); i0 += len(res) {
		n := min(len(res), len(vec)-i0)
		for i, v := range vec[i0 : i0+n] {
			res[i] = v - ref[i0+i]
		}
		tensor.Float16EncodeSlice(dst[2*i0:], res[:n])
	}
}

// DecodeDelta implements DeltaCodec.
func (c FP16Codec) DecodeDelta(dst ParamVector, data []byte, ref ParamVector) (int, error) {
	checkRef(len(dst), ref, "fp16")
	if err := checkCount(dst, data, "fp16"); err != nil {
		return 0, err
	}
	want := int(c.EncodedSize(len(dst)))
	if len(data) < want {
		return 0, fmt.Errorf("nn: fp16: body truncated (%d of %d bytes)", len(data), want)
	}
	body := data[codecHeaderBytes:]
	if workers := codecWorkers(len(dst), minParallelFP16); workers > 1 {
		tensor.ParallelChunks(len(dst), workers, func(_, i0, i1 int) {
			fp16DecodeDelta(dst[i0:i1], body[2*i0:], refChunk(ref, i0, i1))
		})
	} else {
		fp16DecodeDelta(dst, body, ref)
	}
	return want, nil
}

// fp16DecodeDelta expands len(dst) binary16 values and adds ref back.
func fp16DecodeDelta(dst ParamVector, body []byte, ref ParamVector) {
	if ref == nil {
		for i := range dst {
			dst[i] = tensor.Float16From(binary.LittleEndian.Uint16(body[2*i:]))
		}
		return
	}
	for i := range dst {
		dst[i] = tensor.Float16From(binary.LittleEndian.Uint16(body[2*i:])) + ref[i]
	}
}

// Int8Codec ships per-tensor affine quantization: the finite value range
// [min, max] is mapped onto the 256 grid points min + q·(max−min)/255, so
// each finite parameter decodes within (max−min)/510 of its value — one
// byte per parameter plus a 16-byte affine header. Non-finite inputs are
// clamped onto the finite grid (+Inf → max, −Inf and NaN → min): the
// decoded wire is finite by construction, and Decode refuses a header
// whose grid is not. An all-equal vector has scale
// 0 and round-trips exactly (every point decodes to min). A range too
// wide for its own width to be finite (max−min overflows) is first
// clamped to ±MaxFloat64/4; values beyond land on the end points, values
// inside keep the (max−min)/510 bound of the clamped grid.
//
// Under a delta reference all of the above is said of the residual
// vec−ref. The element work is three fused kernels in internal/tensor —
// tensor.DeltaRange, tensor.QuantDelta on the encode side,
// tensor.DequantAdd on the decode side — which take the reference as an
// argument, so a round trip reads vec and ref twice, writes dst once and
// allocates nothing below the fan-out threshold. The range clamps and the
// header checks stay here.
type Int8Codec struct{}

// Name implements Codec.
func (Int8Codec) Name() string { return "int8" }

// Lossless implements Codec.
func (Int8Codec) Lossless() bool { return false }

// EncodedSize implements Codec.
func (Int8Codec) EncodedSize(n int) int64 { return codecHeaderBytes + 16 + int64(n) }

// Encode implements Codec.
func (c Int8Codec) Encode(buf []byte, vec ParamVector) []byte { return c.EncodeDelta(buf, vec, nil) }

// Decode implements Codec.
func (c Int8Codec) Decode(dst ParamVector, data []byte) (int, error) {
	return c.DecodeDelta(dst, data, nil)
}

// EncodeDelta implements DeltaCodec.
func (Int8Codec) EncodeDelta(buf []byte, vec, ref ParamVector) []byte {
	checkRef(len(vec), ref, "int8")
	buf = putCount(buf, len(vec))
	lo, hi := int8Range(vec, ref)
	scale := (hi - lo) / 255
	var w [16]byte
	binary.LittleEndian.PutUint64(w[:8], math.Float64bits(lo))
	binary.LittleEndian.PutUint64(w[8:], math.Float64bits(scale))
	buf = append(buf, w[:]...)
	body, buf := codecGrow(buf, len(vec))
	// The closure the goroutines need is built on the parallel path only
	// (and captures by value), so the serial path allocates nothing.
	if workers := codecWorkers(len(vec), minParallelCodec); workers > 1 {
		tensor.ParallelChunks(len(vec), workers, func(_, i0, i1 int) {
			tensor.QuantDelta(body[i0:i1], vec[i0:i1], refChunk(ref, i0, i1), lo, scale)
		})
	} else {
		tensor.QuantDelta(body, vec, ref, lo, scale)
	}
	return buf
}

// int8Range finds the grid's [lo, hi]: the finite range of the residual
// vec−ref, pinned at zero when nothing is finite and clamped when the
// grid's top overflows. Large vectors reduce per chunk and combine in chunk
// order with the scan's own strict compares, so the range — the sign of a
// zero end included — is identical to the serial scan at every worker
// count.
func int8Range(vec, ref ParamVector) (lo, hi float64) {
	if workers := codecWorkers(len(vec), minParallelCodec); workers > 1 {
		lo, hi = int8RangeChunks(vec, ref, workers)
	} else {
		lo, hi = tensor.DeltaRange(vec, ref)
	}
	if lo > hi { // no finite values (or empty): pin the grid at zero
		lo, hi = 0, 0
	}
	if math.IsInf(int8GridTop(lo, (hi-lo)/255), 1) {
		// The grid's top overflowed — with the width (scale +Inf, every
		// coordinate decoding to lo + Inf·0 = NaN) or, under a width within
		// an ulp of MaxFloat64, on its own — and DecodeDelta refuses such a
		// header. On the clamped grid hi−lo ≤ MaxFloat64/2, so neither
		// scale nor the top can overflow. (Compares, not max/min: lo and hi
		// are finite, and the function keeps the 32-byte size class it had,
		// so the linker places benchmark/'s calibration loop where the
		// parent's was — ROADMAP item 2(a).)
		if lo < -math.MaxFloat64/4 {
			lo = -math.MaxFloat64 / 4
		}
		if hi > math.MaxFloat64/4 {
			hi = math.MaxFloat64 / 4
		}
	}
	return lo, hi
}

// int8GridTop is the grid's last point, lo + 255·scale, with the product
// rounded on its own: the encoder's range check and the decoder's header
// check must see the same number on platforms that would fuse the two.
func int8GridTop(lo, scale float64) float64 { return lo + float64(scale*255) }

// int8RangeChunks is the fanned-out range scan; the per-chunk partials
// are the fan-out's only allocation besides its goroutines.
func int8RangeChunks(vec, ref ParamVector, workers int) (lo, hi float64) {
	// ParallelChunks can dispatch fewer chunks than workers (the last
	// chunk may cover the remainder), so the undispatched slots must read
	// as "no finite values", not as zeros — a zero would be combined into
	// the range and corrupt the quantization grid.
	parts := make([][2]float64, workers)
	for i := range parts {
		parts[i] = [2]float64{math.Inf(1), math.Inf(-1)}
	}
	tensor.ParallelChunks(len(vec), workers, func(c, i0, i1 int) {
		parts[c][0], parts[c][1] = tensor.DeltaRange(vec[i0:i1], refChunk(ref, i0, i1))
	})
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, p := range parts {
		if p[0] < lo {
			lo = p[0]
		}
		if p[1] > hi {
			hi = p[1]
		}
	}
	return lo, hi
}

// DecodeDelta implements DeltaCodec.
func (c Int8Codec) DecodeDelta(dst ParamVector, data []byte, ref ParamVector) (int, error) {
	checkRef(len(dst), ref, "int8")
	if err := checkCount(dst, data, "int8"); err != nil {
		return 0, err
	}
	want := int(c.EncodedSize(len(dst)))
	if len(data) < want {
		return 0, fmt.Errorf("nn: int8: body truncated (%d of %d bytes)", len(data), want)
	}
	lo := math.Float64frombits(binary.LittleEndian.Uint64(data[codecHeaderBytes:]))
	scale := math.Float64frombits(binary.LittleEndian.Uint64(data[codecHeaderBytes+8:]))
	// Every grid point lies between lo and lo+255·scale, so the decode is
	// finite exactly when both ends are (v−v is NaN for ±Inf and NaN).
	// int8Range clamps every range whose top is not, so EncodeDelta emits
	// no other header; a hostile one is refused rather than decoded to
	// Inf/NaN.
	if hi := int8GridTop(lo, scale); lo-lo != 0 || hi-hi != 0 {
		return 0, fmt.Errorf("nn: int8: grid [%v, %v] is not finite", lo, hi)
	}
	body := data[codecHeaderBytes+16 : want]
	if workers := codecWorkers(len(dst), minParallelCodec); workers > 1 {
		tensor.ParallelChunks(len(dst), workers, func(_, i0, i1 int) {
			tensor.DequantAdd(dst[i0:i1], body[i0:i1], refChunk(ref, i0, i1), lo, scale)
		})
	} else {
		tensor.DequantAdd(dst, body, ref, lo, scale)
	}
	return want, nil
}

// TopKCodec ships magnitude sparsification: the ⌈Frac·n⌉ largest-magnitude
// entries travel as (uint32 index, float32 value) pairs; everything else
// decodes to zero — which, under the transport's delta encoding, means
// "unchanged since the reference". Selection is deterministic: magnitude
// ties break toward the lower index, and NaN sorts as +Inf so a poisoned
// coordinate is always shipped rather than silently dropped.
type TopKCodec struct {
	// Frac is the kept fraction, in (0, 1].
	Frac float64
}

// Name implements Codec.
func (c TopKCodec) Name() string { return fmt.Sprintf("topk:%g", c.Frac) }

// Lossless implements Codec.
func (TopKCodec) Lossless() bool { return false }

// Keep returns the number of entries shipped for an n-element vector.
func (c TopKCodec) Keep(n int) int {
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(c.Frac * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// EncodedSize implements Codec.
func (c TopKCodec) EncodedSize(n int) int64 {
	return codecHeaderBytes + 4 + 8*int64(c.Keep(n))
}

// topkMag orders NaN above everything so poisoned coordinates are shipped.
func topkMag(v float64) float64 {
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	return math.Abs(v)
}

// Encode implements Codec.
func (c TopKCodec) Encode(buf []byte, vec ParamVector) []byte { return c.EncodeDelta(buf, vec, nil) }

// Decode implements Codec.
func (c TopKCodec) Decode(dst ParamVector, data []byte) (int, error) {
	return c.DecodeDelta(dst, data, nil)
}

// EncodeDelta implements DeltaCodec: selection runs on the magnitudes of
// vec−ref, formed in the magnitude pass, and the kept pairs carry
// float32(vec[i]−ref[i]).
func (c TopKCodec) EncodeDelta(buf []byte, vec, ref ParamVector) []byte {
	checkRef(len(vec), ref, "topk")
	buf = putCount(buf, len(vec))
	k := c.Keep(len(vec))
	var w [8]byte
	binary.LittleEndian.PutUint32(w[:4], uint32(k))
	buf = append(buf, w[:4]...)
	if k == 0 {
		return buf
	}
	// Threshold = k-th largest magnitude, found by quickselect over an
	// arena-leased scratch copy; the pass below then takes strictly-greater
	// entries first and fills the remainder with threshold ties in index
	// order — fully deterministic, because the threshold is a value (the
	// element at sorted position n−k), not a permutation, so any selection
	// strategy yields the same emit set as the full sort did. The mags
	// buffer outlives the (reordering) selection via a second scratch, so
	// the emit passes compare cached magnitudes instead of recomputing
	// them.
	magsT := tensor.GetScratch(len(vec))
	selT := tensor.GetScratch(len(vec))
	mags, sel := magsT.Data[:len(vec)], selT.Data[:len(vec)]
	tensor.ParallelChunks(len(vec), codecWorkers(len(vec), minParallelCodec), func(_, i0, i1 int) {
		if ref == nil {
			for i := i0; i < i1; i++ {
				mags[i] = topkMag(vec[i])
			}
		} else {
			for i := i0; i < i1; i++ {
				mags[i] = topkMag(vec[i] - ref[i])
			}
		}
		copy(sel[i0:i1], mags[i0:i1])
	})
	thresh := selectNth(sel, len(vec)-k)
	tensor.PutScratch(selT)

	emit := func(i int) {
		v := vec[i]
		if ref != nil {
			v -= ref[i]
		}
		binary.LittleEndian.PutUint32(w[:4], uint32(i))
		binary.LittleEndian.PutUint32(w[4:], math.Float32bits(float32(v)))
		buf = append(buf, w[:]...)
	}
	left := k
	for i, m := range mags {
		if left > 0 && m > thresh {
			emit(i)
			left--
		}
	}
	for i, m := range mags {
		if left == 0 {
			break
		}
		if m == thresh {
			emit(i)
			left--
		}
	}
	tensor.PutScratch(magsT)
	return buf
}

// DecodeDelta implements DeltaCodec. Every index is checked before the
// first write, so a payload rejected for an out-of-range index leaves dst
// untouched like every other rejection. A dropped coordinate decodes to
// 0 + ref[i] — which is +0 where ref[i] is −0, so not a copy of ref — and
// a kept one to value + ref[idx], the last of duplicate indices winning.
func (c TopKCodec) DecodeDelta(dst ParamVector, data []byte, ref ParamVector) (int, error) {
	checkRef(len(dst), ref, "topk")
	if err := checkCount(dst, data, "topk"); err != nil {
		return 0, err
	}
	if len(data) < codecHeaderBytes+4 {
		return 0, fmt.Errorf("nn: topk: truncated pair count")
	}
	k := int(binary.LittleEndian.Uint32(data[codecHeaderBytes:]))
	if k != c.Keep(len(dst)) {
		return 0, fmt.Errorf("nn: topk: payload keeps %d entries, codec %d", k, c.Keep(len(dst)))
	}
	want := int(c.EncodedSize(len(dst)))
	if len(data) < want {
		return 0, fmt.Errorf("nn: topk: body truncated (%d of %d bytes)", len(data), want)
	}
	body := data[codecHeaderBytes+4 : want]
	for p := 0; p < k; p++ {
		if idx := binary.LittleEndian.Uint32(body[8*p:]); uint64(idx) >= uint64(len(dst)) {
			return 0, fmt.Errorf("nn: topk: index %d out of range %d", idx, len(dst))
		}
	}
	if ref == nil {
		clear(dst)
	} else {
		for i, r := range ref {
			dst[i] = 0 + r
		}
	}
	for p := 0; p < k; p++ {
		idx := binary.LittleEndian.Uint32(body[8*p:])
		v := float64(math.Float32frombits(binary.LittleEndian.Uint32(body[8*p+4:])))
		if ref != nil {
			v += ref[idx]
		}
		dst[idx] = v
	}
	return want, nil
}

// selectNth returns the value at sorted position n (0-based ascending) of
// a, overwriting a as scratch — the linear-time replacement for the full
// sort the threshold pass used to pay. It is a radix selection over the
// order-preserving integer encoding of the floats: one 256-way histogram
// pass per key byte, from the top byte down, narrowing to the bucket that
// contains the target rank. Unlike quickselect it has no degenerate
// inputs — the tie plateaus a delta-encoded payload produces (runs of
// zero residuals) collapse into one bucket and terminate the scan — and
// it is trivially deterministic: the result is a value, never a
// permutation. a must be NaN-free (topkMag already maps NaN to +Inf).
func selectNth(a []float64, n int) float64 {
	cur := a
	rank := n
	for shift := 56; ; shift -= 8 {
		var counts [256]int
		for _, v := range cur {
			counts[floatKey(v)>>shift&0xff]++
		}
		bucket := 0
		for cum := 0; ; bucket++ {
			if cum+counts[bucket] > rank {
				rank -= cum
				break
			}
			cum += counts[bucket]
		}
		if counts[bucket] == 1 || shift == 0 {
			// A singleton bucket (or byte exhaustion: all candidates share
			// every remaining byte, i.e. they are equal) pins the value.
			for _, v := range cur {
				if int(floatKey(v)>>shift&0xff) == bucket {
					return v
				}
			}
		}
		if counts[bucket] == len(cur) {
			continue // every candidate shares this byte: nothing to filter
		}
		// Compact the bucket's candidates to the front and recurse on them.
		w := 0
		for _, v := range cur {
			if int(floatKey(v)>>shift&0xff) == bucket {
				cur[w] = v
				w++
			}
		}
		cur = cur[:w]
	}
}

// floatKey maps a float64 to a uint64 whose unsigned ordering matches the
// float ordering over all non-NaN values (the standard total-order
// transform: negative values flip every bit, others flip the sign bit).
func floatKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}
