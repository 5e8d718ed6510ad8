package baselines

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math"
	"runtime"
	"testing"

	"fedcross/internal/data"
	"fedcross/internal/fl"
	"fedcross/internal/tensor"
)

// baselineFactories builds a fresh instance per call, so no two runs
// share algorithm state.
func baselineFactories(t *testing.T) map[string]func() fl.Algorithm {
	t.Helper()
	return map[string]func() fl.Algorithm{
		"fedavg": func() fl.Algorithm { return NewFedAvg() },
		"fedprox": func() fl.Algorithm {
			a, err := NewFedProx(0.01)
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		"scaffold": func() fl.Algorithm { return NewSCAFFOLD() },
		"fedgen":   func() fl.Algorithm { return NewFedGen() },
		"clusamp":  func() fl.Algorithm { return NewCluSamp() },
	}
}

// words builds state bytes word by word in nn's codec layout.
func words(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// hostileStates are well-formed-looking blobs a baseline must refuse,
// built from its valid state after Init on testEnv's 276-parameter MLP:
// the global vector (8 + 276·8 bytes), the generator (16), then the
// algorithm's own tail. Each once panicked, allocated before checking, or
// loaded silently or by halves.
func hostileStates(name string, valid []byte) map[string][]byte {
	const server = 8 + 276*8 + 16
	rng := valid[server-16 : server]
	tail := valid[:len(valid)-8] // everything before the last count word
	minus := func(v int64) uint64 { return uint64(v) }
	switch name {
	case "fedavg", "fedprox":
		return map[string][]byte{"3-parameter global": append(words(4, 1, 2, 3), rng...)}
	case "scaffold":
		moved := bytes.Clone(valid[:server])
		moved[8] ^= 1 // a different global, so a half-load would show
		one := math.Float64bits(1)
		return map[string][]byte{
			"truncated after the global": moved,
			"variates keyed -5 and 2^40": append(bytes.Clone(tail), words(2, minus(-5), 2, one, 1<<40, 2, one)...),
		}
	case "clusamp":
		return map[string][]byte{"8-byte map count": append(bytes.Clone(tail), words(1<<22)...)}
	case "fedgen":
		// The never-stepped optimizer wrote a zero buffer count last; four
		// buffers (the generator's two weights and biases) replace it.
		return map[string][]byte{
			"velocity shape [-1]":      append(bytes.Clone(tail), words(4, 1, minus(-1), 1)...),
			"velocity shape [2^24 16]": append(bytes.Clone(tail), words(4, 2, 1<<24, 16, 1)...),
			"8-byte optimizer count":   append(bytes.Clone(tail), words(1<<22)...),
		}
	}
	return nil
}

// refused asserts that LoadState rejects blob having allocated at most
// len(blob) + 1 MiB and leaves the algorithm's saved state exactly as it
// was.
func refused(t *testing.T, ck fl.RoundCheckpointer, what string, blob []byte) {
	t.Helper()
	var before, after bytes.Buffer
	if err := ck.SaveState(&before); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := ck.LoadState(bytes.NewReader(blob))
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Fatalf("%s: hostile state accepted", what)
	}
	if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(len(blob))+1<<20; got > limit {
		t.Fatalf("%s: refusing %d bytes allocated %d", what, len(blob), got)
	}
	if err := ck.SaveState(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after.Bytes(), before.Bytes()) {
		t.Fatalf("%s: refused state changed the algorithm (%v)", what, err)
	}
}

// TestBaselineStateRejectsHostileBytes: a truncated, corrupted or
// wrong-shaped state stream fails LoadState with an error — never a
// panic, never an allocation the bytes present cannot back, never a
// silently or half-loaded algorithm.
func TestBaselineStateRejectsHostileBytes(t *testing.T) {
	env := testEnv(2, 6, data.Heterogeneity{IID: true})
	cfg := testCfg(2)
	for name, mk := range baselineFactories(t) {
		t.Run(name, func(t *testing.T) {
			algo := mk()
			if err := algo.Init(env, cfg, tensor.NewRNG(7)); err != nil {
				t.Fatal(err)
			}
			ck, ok := algo.(fl.RoundCheckpointer)
			if !ok {
				t.Fatalf("%s must implement fl.RoundCheckpointer", name)
			}
			var buf bytes.Buffer
			if err := ck.SaveState(&buf); err != nil {
				t.Fatal(err)
			}
			valid := buf.Bytes()

			fresh := mk()
			if err := fresh.Init(env, cfg, tensor.NewRNG(7)); err != nil {
				t.Fatal(err)
			}
			fck := fresh.(fl.RoundCheckpointer)
			if err := fck.LoadState(bytes.NewReader(valid)); err != nil {
				t.Fatalf("round-trip of valid state failed: %v", err)
			}
			hostile := map[string][]byte{
				"half":          valid[:len(valid)/2],
				"one byte":      valid[:1],
				"empty":         nil,
				"garbage":       []byte("garbage state bytes"),
				"trailing byte": append(bytes.Clone(valid), 0),
			}
			maps.Copy(hostile, hostileStates(name, valid))
			for what, blob := range hostile {
				refused(t, fck, what, blob)
			}
		})
	}
}
