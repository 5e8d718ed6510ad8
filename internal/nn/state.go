package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"fedcross/internal/tensor"
)

// The state codec: every checkpoint byte — the snapshot container both
// engines write, each algorithm's SaveState blob, the optimizer state
// inside one — is written by a StateEncoder and read by a StateDecoder.
// Little-endian 64-bit words: an int is its int64, a float its bits, a
// string or list a count then its elements, a vector its length plus one
// (0 for nil) then its elements, a map a count then (key, vector) pairs in
// ascending key order, a generator its (seed, position).
//
// The decoder holds its input whole and treats it as hostile, under one
// rule: every count is bounded by its cap and by the bytes left before
// anything is allocated for it, a vector is read at the dimension the
// caller expects, an id inside the range it names, map keys strictly
// ascending, and trailing bytes are refused — so it returns an error or a
// valid value, and an accepted input has exactly one encoding.

// maxStateString caps a serialized string (an algorithm label).
const maxStateString = 1 << 12

// StateEncoder builds a state blob in memory; the first error (a cap, a
// missing piece of state) sticks.
type StateEncoder struct {
	buf []byte
	err error
}

// Fail records err unless an earlier error is already recorded.
func (e *StateEncoder) Fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func appendWords[T ~int | ~int64 | ~uint64](e *StateEncoder, vs []T) {
	for _, v := range vs {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v))
	}
}

// U64, I64 and Int append each value as one word.
func (e *StateEncoder) U64(vs ...uint64) { appendWords(e, vs) }
func (e *StateEncoder) I64(vs ...int64)  { appendWords(e, vs) }
func (e *StateEncoder) Int(vs ...int)    { appendWords(e, vs) }

// F64 appends each value's IEEE-754 bits.
func (e *StateEncoder) F64(vs ...float64) {
	n := len(e.buf)
	e.buf = slices.Grow(e.buf, 8*len(vs))[:n+8*len(vs)]
	for i, v := range vs {
		binary.LittleEndian.PutUint64(e.buf[n+8*i:], math.Float64bits(v))
	}
}

// String appends a length-prefixed string of at most maxStateString bytes.
func (e *StateEncoder) String(s string) {
	if len(s) > maxStateString {
		e.Fail(fmt.Errorf("nn: state string of %d bytes exceeds cap %d", len(s), maxStateString))
		return
	}
	e.Int(len(s))
	e.buf = append(e.buf, s...)
}

// Ints appends a length-prefixed int list.
func (e *StateEncoder) Ints(xs []int) {
	e.Int(len(xs))
	e.Int(xs...)
}

// Blob appends a length-prefixed byte string.
func (e *StateEncoder) Blob(b []byte) {
	e.Int(len(b))
	e.buf = append(e.buf, b...)
}

// Vector appends a parameter vector; nil stays distinct from empty.
func (e *StateEncoder) Vector(v ParamVector) {
	if v == nil {
		e.U64(0)
		return
	}
	e.Int(len(v) + 1)
	e.F64(v...)
}

// VectorMap appends a map of vectors in ascending key order, so equal maps
// encode to equal bytes.
func (e *StateEncoder) VectorMap(m map[int]ParamVector) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	e.Int(len(keys))
	for _, k := range keys {
		e.Int(k)
		e.Vector(m[k])
	}
}

// RNG appends a generator's (seed, position) snapshot.
func (e *StateEncoder) RNG(g *tensor.RNG) {
	if g == nil {
		e.Fail(errors.New("nn: no generator to save (state saved before Init?)"))
		return
	}
	st := g.State()
	e.I64(st.Seed)
	e.U64(st.Pos)
}

// Bytes returns the blob, or the first error.
func (e *StateEncoder) Bytes() ([]byte, error) { return e.buf, e.err }

// EncodeState writes what encode appends to w: the body of every SaveState.
func EncodeState(w io.Writer, encode func(*StateEncoder)) error {
	var e StateEncoder
	encode(&e)
	if e.err != nil {
		return e.err
	}
	_, err := w.Write(e.buf)
	return err
}

// StateDecoder reads a blob held whole in memory. The first failure
// sticks, labelled with the section; later reads return zero values.
type StateDecoder struct {
	data []byte
	what string
	err  error
}

// NewStateDecoder reads data.
func NewStateDecoder(data []byte) *StateDecoder { return &StateDecoder{data: data} }

// Section labels the failures that follow.
func (d *StateDecoder) Section(what string) { d.what = what }

// Fail records a failure unless an earlier one is already recorded.
func (d *StateDecoder) Fail(format string, args ...any) {
	if d.err == nil {
		if d.what != "" {
			format = d.what + ": " + format
		}
		d.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first failure.
func (d *StateDecoder) Err() error { return d.err }

// Finish refuses trailing bytes and returns the first failure.
func (d *StateDecoder) Finish() error {
	if d.err == nil && len(d.data) > 0 {
		d.Fail("%d trailing bytes", len(d.data))
	}
	return d.err
}

// take consumes n bytes the caller has checked are present.
func (d *StateDecoder) take(n int) []byte {
	b := d.data[:n:n]
	d.data = d.data[n:]
	return b
}

// U64 reads one word.
func (d *StateDecoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.data) < 8 {
		d.Fail("truncated: %w", io.ErrUnexpectedEOF)
		return 0
	}
	return binary.LittleEndian.Uint64(d.take(8))
}

// I64 reads one word.
func (d *StateDecoder) I64() int64 { return int64(d.U64()) }

// Int reads one int64 word.
func (d *StateDecoder) Int() int { return int(d.I64()) }

// F64 reads one float's IEEE-754 bits.
func (d *StateDecoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Count reads a record count bounded by limit and by how many records of
// at least recordBytes the bytes left could hold.
func (d *StateDecoder) Count(limit, recordBytes int) int {
	n := d.U64()
	if n > uint64(limit) {
		d.Fail("count %d exceeds cap %d", n, limit)
	} else if n > uint64(len(d.data)/recordBytes) {
		d.Fail("count %d exceeds the %d bytes left", n, len(d.data))
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string of at most maxStateString bytes.
func (d *StateDecoder) String() string { return string(d.take(d.Count(maxStateString, 1))) }

// Blob reads a length-prefixed byte string, aliasing the input.
func (d *StateDecoder) Blob(limit int) []byte { return d.take(d.Count(limit, 1)) }

// Ints reads a length-prefixed list of at most limit ints.
func (d *StateDecoder) Ints(limit int) []int {
	xs := make([]int, d.Count(limit, 8))
	for i := range xs {
		xs[i] = d.Int()
	}
	return xs
}

// IDs reads a list of at most limit client ids, each in [lo, n).
func (d *StateDecoder) IDs(limit, lo, n int) []int {
	xs := d.Ints(limit)
	for _, x := range xs {
		if x < lo || x >= n {
			d.Fail("client id %d outside [%d,%d)", x, lo, n)
		}
	}
	return xs
}

// Vector reads a parameter vector of exactly dim entries.
func (d *StateDecoder) Vector(dim int) ParamVector {
	if n := d.U64(); n != uint64(dim)+1 {
		d.Fail("vector has %d params, want %d", int64(n)-1, dim) // -1: nil
	} else if dim > len(d.data)/8 {
		d.Fail("vector of %d params exceeds the %d bytes left", dim, len(d.data))
	}
	if d.err != nil {
		return nil
	}
	v, b := make(ParamVector, dim), d.take(8*dim)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	return v
}

// VectorMap reads a map of dim-entry vectors keyed by ids in [0, n),
// strictly ascending.
func (d *StateDecoder) VectorMap(n, dim int) map[int]ParamVector {
	count := d.Count(n, 16+8*dim)
	m := make(map[int]ParamVector, count)
	for prev := -1; len(m) < count && d.err == nil; {
		k := d.Int()
		if k <= prev || k >= n {
			d.Fail("map key %d after %d, want ascending ids in [0,%d)", k, prev, n)
		}
		m[k], prev = d.Vector(dim), k
	}
	return m
}

// RNG restores a generator's (seed, position), within RestoreRNG's limit.
func (d *StateDecoder) RNG() *tensor.RNG {
	st := tensor.RNGState{Seed: d.I64(), Pos: d.U64()}
	if d.err != nil {
		return nil
	}
	g, err := tensor.RestoreRNG(st)
	if err != nil {
		d.Fail("%w", err)
	}
	return g
}

// DecodeState, the body of every LoadState, hands all of r to decode,
// which reads every field into locals and returns what installs them;
// install runs only if the whole input decoded, so a refusal changes nothing.
func DecodeState(r io.Reader, decode func(*StateDecoder) (install func())) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	d := NewStateDecoder(data)
	if install := decode(d); d.Finish() == nil {
		install()
	}
	return d.err
}

// EncodeState appends the momentum buffers (shape and data), none for a
// never-stepped optimizer, so a resumed loop steps bit-identically.
func (s *SGD) EncodeState(e *StateEncoder) {
	e.Int(len(s.velocity))
	for _, v := range s.velocity {
		e.Ints(v.Shape)
		e.Vector(v.Data)
	}
}

// DecodeState reads EncodeState's bytes — no buffers, or one of exactly
// each parameter's shape — and returns what installs them.
func (s *SGD) DecodeState(d *StateDecoder, params []*tensor.Tensor) (install func()) {
	var vel []*tensor.Tensor
	if n := d.Int(); n != 0 && n != len(params) {
		d.Fail("%d momentum buffers for %d parameters", n, len(params))
	} else if n != 0 {
		vel = make([]*tensor.Tensor, n)
		for i, p := range params {
			if shape := d.Ints(len(p.Shape)); !slices.Equal(shape, p.Shape) {
				d.Fail("momentum buffer %d has shape %v, want %v", i, shape, p.Shape)
			}
			if data := d.Vector(len(p.Data)); d.err == nil {
				vel[i] = tensor.New(data, p.Shape...)
			}
		}
	}
	return func() { s.velocity = vel }
}
