package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"fedcross/internal/tensor"
)

// Binary state primitives for round-granular checkpoints. Every reader
// treats its stream as hostile: lengths are validated against hard caps
// before any allocation, and payloads are consumed in bounded chunks so a
// truncated or lying stream fails having allocated at most one chunk
// beyond the bytes actually present — the same hardening discipline as
// the codec headers and core's middleware checkpoint.

const (
	// maxStateVectorLen caps a serialized parameter vector's length.
	maxStateVectorLen = 1 << 27
	// maxStateEntries caps map/slice entry counts (client ids, tensors).
	maxStateEntries = 1 << 22
	// maxStateStringLen caps serialized string lengths.
	maxStateStringLen = 1 << 12
	// stateChunkBytes bounds read granularity for large payloads.
	stateChunkBytes = 1 << 20
)

// WriteU64 writes one little-endian uint64.
func WriteU64(w io.Writer, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

// ReadU64 reads one little-endian uint64.
func ReadU64(r io.Reader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// WriteI64 writes one little-endian int64.
func WriteI64(w io.Writer, v int64) error { return WriteU64(w, uint64(v)) }

// ReadI64 reads one little-endian int64.
func ReadI64(r io.Reader) (int64, error) {
	v, err := ReadU64(r)
	return int64(v), err
}

// WriteF64 writes one float64 as its IEEE-754 bits.
func WriteF64(w io.Writer, v float64) error { return WriteU64(w, math.Float64bits(v)) }

// ReadF64 reads one float64 from its IEEE-754 bits.
func ReadF64(r io.Reader) (float64, error) {
	bits, err := ReadU64(r)
	return math.Float64frombits(bits), err
}

// WriteString writes a length-prefixed string.
func WriteString(w io.Writer, s string) error {
	if len(s) > maxStateStringLen {
		return fmt.Errorf("nn: state string %d bytes exceeds cap %d", len(s), maxStateStringLen)
	}
	if err := WriteU64(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// ReadString reads a length-prefixed string.
func ReadString(r io.Reader) (string, error) {
	n, err := ReadU64(r)
	if err != nil {
		return "", err
	}
	if n > maxStateStringLen {
		return "", fmt.Errorf("nn: state string length %d exceeds cap %d", n, maxStateStringLen)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// WriteVector writes a length-prefixed parameter vector. A nil vector is
// preserved as distinct from an empty one (presence flag), so optional
// state round-trips faithfully.
func WriteVector(w io.Writer, v ParamVector) error {
	if v == nil {
		return WriteU64(w, 0)
	}
	if len(v) > maxStateVectorLen {
		return fmt.Errorf("nn: state vector %d params exceeds cap %d", len(v), maxStateVectorLen)
	}
	if err := WriteU64(w, uint64(len(v))+1); err != nil {
		return err
	}
	buf := make([]byte, min(8*len(v), stateChunkBytes))
	for off := 0; off < len(v); {
		chunk := len(v) - off
		if chunk > len(buf)/8 {
			chunk = len(buf) / 8
		}
		for j := 0; j < chunk; j++ {
			binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(v[off+j]))
		}
		if _, err := w.Write(buf[:8*chunk]); err != nil {
			return err
		}
		off += chunk
	}
	return nil
}

// ReadVector reads a vector written by WriteVector, allocating in bounded
// chunks as bytes actually arrive.
func ReadVector(r io.Reader) (ParamVector, error) {
	raw, err := ReadU64(r)
	if err != nil {
		return nil, err
	}
	if raw == 0 {
		return nil, nil
	}
	n := raw - 1
	if n > maxStateVectorLen {
		return nil, fmt.Errorf("nn: state vector length %d exceeds cap %d", n, maxStateVectorLen)
	}
	v := make(ParamVector, 0, min(int(n), stateChunkBytes/8))
	buf := make([]byte, min(8*int(n), stateChunkBytes))
	for uint64(len(v)) < n {
		want := 8 * (int(n) - len(v))
		if want > len(buf) {
			want = len(buf)
		}
		if _, err := io.ReadFull(r, buf[:want]); err != nil {
			return nil, fmt.Errorf("nn: state vector: %w", err)
		}
		for off := 0; off < want; off += 8 {
			v = append(v, math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])))
		}
	}
	return v, nil
}

// WriteIntSlice writes a length-prefixed []int (as int64s).
func WriteIntSlice(w io.Writer, xs []int) error {
	if len(xs) > maxStateEntries {
		return fmt.Errorf("nn: state int slice %d entries exceeds cap %d", len(xs), maxStateEntries)
	}
	if err := WriteU64(w, uint64(len(xs))); err != nil {
		return err
	}
	for _, x := range xs {
		if err := WriteI64(w, int64(x)); err != nil {
			return err
		}
	}
	return nil
}

// ReadIntSlice reads a slice written by WriteIntSlice.
func ReadIntSlice(r io.Reader) ([]int, error) {
	n, err := ReadU64(r)
	if err != nil {
		return nil, err
	}
	if n > maxStateEntries {
		return nil, fmt.Errorf("nn: state int slice length %d exceeds cap %d", n, maxStateEntries)
	}
	xs := make([]int, n)
	for i := range xs {
		v, err := ReadI64(r)
		if err != nil {
			return nil, err
		}
		xs[i] = int(v)
	}
	return xs, nil
}

// WriteVectorMap writes a map[int]ParamVector with keys in ascending
// order, so identical maps serialize to identical bytes.
func WriteVectorMap(w io.Writer, m map[int]ParamVector) error {
	if len(m) > maxStateEntries {
		return fmt.Errorf("nn: state map %d entries exceeds cap %d", len(m), maxStateEntries)
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	if err := WriteU64(w, uint64(len(keys))); err != nil {
		return err
	}
	for _, k := range keys {
		if err := WriteI64(w, int64(k)); err != nil {
			return err
		}
		if err := WriteVector(w, m[k]); err != nil {
			return err
		}
	}
	return nil
}

// ReadVectorMap reads a map written by WriteVectorMap.
func ReadVectorMap(r io.Reader) (map[int]ParamVector, error) {
	n, err := ReadU64(r)
	if err != nil {
		return nil, err
	}
	if n > maxStateEntries {
		return nil, fmt.Errorf("nn: state map length %d exceeds cap %d", n, maxStateEntries)
	}
	m := make(map[int]ParamVector, n)
	for i := uint64(0); i < n; i++ {
		k, err := ReadI64(r)
		if err != nil {
			return nil, err
		}
		v, err := ReadVector(r)
		if err != nil {
			return nil, err
		}
		m[int(k)] = v
	}
	return m, nil
}

// WriteRNG writes a generator's (seed, position) snapshot.
func WriteRNG(w io.Writer, g *tensor.RNG) error {
	st := g.State()
	if err := WriteI64(w, st.Seed); err != nil {
		return err
	}
	return WriteU64(w, st.Pos)
}

// ReadRNG restores a generator written by WriteRNG. A position past
// tensor.RestoreRNG's replay limit is an error.
func ReadRNG(r io.Reader) (*tensor.RNG, error) {
	seed, err := ReadI64(r)
	if err != nil {
		return nil, err
	}
	pos, err := ReadU64(r)
	if err != nil {
		return nil, err
	}
	g, err := tensor.RestoreRNG(tensor.RNGState{Seed: seed, Pos: pos})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// SaveState serializes the optimizer's momentum buffers (shape and data),
// so a checkpointed training loop resumes with bit-identical updates. A
// never-stepped optimizer writes an empty buffer list.
func (s *SGD) SaveState(w io.Writer) error {
	if len(s.velocity) > maxStateEntries {
		return fmt.Errorf("nn: SGD state %d tensors exceeds cap %d", len(s.velocity), maxStateEntries)
	}
	if err := WriteU64(w, uint64(len(s.velocity))); err != nil {
		return err
	}
	for _, v := range s.velocity {
		if err := WriteIntSlice(w, v.Shape); err != nil {
			return err
		}
		if err := WriteVector(w, v.Data); err != nil {
			return err
		}
	}
	return nil
}

// LoadState restores momentum buffers written by SaveState, replacing any
// current velocity state.
func (s *SGD) LoadState(r io.Reader) error {
	n, err := ReadU64(r)
	if err != nil {
		return err
	}
	if n > maxStateEntries {
		return fmt.Errorf("nn: SGD state length %d exceeds cap %d", n, maxStateEntries)
	}
	if n == 0 {
		s.velocity = nil
		return nil
	}
	vel := make([]*tensor.Tensor, n)
	for i := range vel {
		shape, err := ReadIntSlice(r)
		if err != nil {
			return err
		}
		data, err := ReadVector(r)
		if err != nil {
			return err
		}
		t := tensor.Zeros(shape...)
		if len(t.Data) != len(data) {
			return fmt.Errorf("nn: SGD state tensor %d: shape %v holds %d values, stream has %d", i, shape, len(t.Data), len(data))
		}
		copy(t.Data, data)
		vel[i] = t
	}
	s.velocity = vel
	return nil
}
