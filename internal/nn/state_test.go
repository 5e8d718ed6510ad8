package nn

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"fedcross/internal/tensor"
)

// TestStateCodecRoundTrip: every field kind reads back as written and the
// blob re-encodes to the same bytes.
func TestStateCodecRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(3)
	rng.Float64()
	vec := ParamVector{1, -2, math.NaN(), math.Inf(1)}
	m := map[int]ParamVector{4: {1, 2, 3, 4}, 0: {5, 6, 7, 8}}
	encode := func(e *StateEncoder) {
		e.U64(7, ^uint64(0))
		e.I64(-9)
		e.F64(0.5)
		e.String("fedcross")
		e.Ints([]int{2, -1, 5})
		e.Blob([]byte("blob"))
		e.Vector(vec)
		e.VectorMap(m)
		e.RNG(rng)
	}
	var e StateEncoder
	encode(&e)
	data, err := e.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	d := NewStateDecoder(data)
	u1, u2, i, f, s := d.U64(), d.U64(), d.I64(), d.F64(), d.String()
	ids, blob := d.IDs(3, -1, 6), d.Blob(4)
	v, back, g := d.Vector(4), d.VectorMap(6, 4), d.RNG()
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if u1 != 7 || u2 != ^uint64(0) || i != -9 || f != 0.5 || s != "fedcross" || string(blob) != "blob" ||
		!reflect.DeepEqual(ids, []int{2, -1, 5}) || !reflect.DeepEqual(back, m) || g.State() != rng.State() {
		t.Fatalf("decoded %v %v %v %v %q %v %q %v %+v", u1, u2, i, f, s, ids, blob, back, g.State())
	}
	for j := range vec {
		if math.Float64bits(v[j]) != math.Float64bits(vec[j]) {
			t.Fatalf("vector element %d: %v, want %v", j, v[j], vec[j])
		}
	}
	var again bytes.Buffer
	if err := EncodeState(&again, encode); err != nil || !bytes.Equal(again.Bytes(), data) {
		t.Fatalf("re-encoding differs (%v)", err)
	}
}

// TestStateDecoderRefuses: each refusal of the codec's one rule, named by
// the error it must produce.
func TestStateDecoderRefuses(t *testing.T) {
	vec := func(e *StateEncoder) { e.Vector(ParamVector{1, 2}) }
	for _, c := range []struct {
		name, want string
		encode     func(*StateEncoder)
		decode     func(*StateDecoder)
	}{
		{"wrong dimension", "vector has 2 params, want 3", vec, func(d *StateDecoder) { d.Vector(3) }},
		{"nil for a vector", "vector has -1 params", func(e *StateEncoder) { e.Vector(nil) }, func(d *StateDecoder) { d.Vector(2) }},
		{"count past the bytes", "exceeds the 0 bytes left", func(e *StateEncoder) { e.Int(1 << 40) }, func(d *StateDecoder) { d.Ints(1 << 50) }},
		{"count past its cap", "exceeds cap 2", func(e *StateEncoder) { e.Ints([]int{1, 2, 3}) }, func(d *StateDecoder) { d.Ints(2) }},
		{"id out of range", "client id 6 outside [0,6)", func(e *StateEncoder) { e.Ints([]int{6}) }, func(d *StateDecoder) { d.IDs(1, 0, 6) }},
		{"descending keys", "map key 1 after 3", func(e *StateEncoder) {
			e.Int(2, 3)
			vec(e)
			e.Int(1)
			vec(e)
		}, func(d *StateDecoder) { d.VectorMap(6, 2) }},
		{"negative key", "map key -5 after -1", func(e *StateEncoder) {
			e.Int(1, -5)
			vec(e)
		}, func(d *StateDecoder) { d.VectorMap(6, 2) }},
		{"key past the population", "map key 6 after -1", func(e *StateEncoder) {
			e.Int(1, 6)
			vec(e)
		}, func(d *StateDecoder) { d.VectorMap(6, 2) }},
		{"replay past the limit", "replay limit", func(e *StateEncoder) { e.U64(1, 1<<62) }, func(d *StateDecoder) { d.RNG() }},
		{"trailing bytes", "8 trailing bytes", func(e *StateEncoder) { e.Int(1, 2) }, func(d *StateDecoder) { d.Int() }},
		{"truncated", "unexpected EOF", func(e *StateEncoder) {}, func(d *StateDecoder) { d.F64() }},
	} {
		err := DecodeState(bytes.NewReader(mustBytes(t, c.encode)), func(d *StateDecoder) func() {
			c.decode(d)
			return func() { t.Fatalf("%s: installed", c.name) }
		})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: %v, want %q", c.name, err, c.want)
		}
	}
}

func mustBytes(t *testing.T, encode func(*StateEncoder)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeState(&buf, encode); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSGDStateRoundTrip: a stepped optimizer's momentum reloads into a
// fresh one at the network's shapes and steps bit-identically; a buffer
// of another shape is refused with nothing installed.
func TestSGDStateRoundTrip(t *testing.T) {
	net := NewSequential(NewLinear(3, 2, tensor.NewRNG(1)), NewReLU(), NewLinear(2, 1, tensor.NewRNG(2)))
	for _, g := range net.Grads() {
		g.Fill(0.25)
	}
	opt := NewSGD(0.1, 0.5)
	opt.Step(net.Params(), net.Grads())
	blob := mustBytes(t, opt.EncodeState)

	fresh := NewSGD(0.1, 0.5)
	load := func(b []byte) error {
		return DecodeState(bytes.NewReader(b), func(d *StateDecoder) func() { return fresh.DecodeState(d, net.Params()) })
	}
	if err := load(blob); err != nil {
		t.Fatal(err)
	}
	if got := mustBytes(t, fresh.EncodeState); !bytes.Equal(got, blob) {
		t.Fatal("reloaded momentum re-encodes differently")
	}
	other := NewSequential(NewLinear(2, 3, tensor.NewRNG(1)), NewReLU(), NewLinear(3, 1, tensor.NewRNG(2)))
	wrong := NewSGD(0.1, 0.5)
	wrong.Step(other.Params(), other.Grads())
	if err := load(mustBytes(t, wrong.EncodeState)); err == nil || !strings.Contains(err.Error(), "has shape [2 3]") {
		t.Fatalf("momentum of another shape: %v", err)
	}
	if got := mustBytes(t, fresh.EncodeState); !bytes.Equal(got, blob) {
		t.Fatal("a refused blob changed the optimizer")
	}
}
