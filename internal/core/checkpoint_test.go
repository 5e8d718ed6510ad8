package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"fedcross/internal/data"
	"fedcross/internal/fl"
	"fedcross/internal/models"
	"fedcross/internal/tensor"
)

func checkpointEnv(t *testing.T) *fl.Env {
	t.Helper()
	cfg := data.VisionConfig{
		Classes: 3, Features: 8,
		TrainPerClass: 20, TestPerClass: 10,
		ModesPerClass: 1, Sep: 1.2, Noise: 0.3, Seed: 1,
	}
	fed := data.BuildVision(cfg, 4, data.Heterogeneity{IID: true}, 2)
	return &fl.Env{Fed: fed, Model: models.MLP(8, 6, 3)}
}

func trainedFedCross(t *testing.T, env *fl.Env) *FedCross {
	t.Helper()
	algo := MustNew(DefaultOptions())
	cfg := fl.Config{Rounds: 3, ClientsPerRound: 3, LocalEpochs: 1, BatchSize: 8, LR: 0.05, Momentum: 0, Seed: 1}
	if _, err := fl.Run(algo, env, cfg); err != nil {
		t.Fatal(err)
	}
	return algo
}

// initFedCross returns a FedCross initialised on env with K = 3 — the
// shape trainedFedCross's state has — ready to load that state.
func initFedCross(t *testing.T, env *fl.Env) *FedCross {
	t.Helper()
	f := MustNew(DefaultOptions())
	if err := f.Init(env, fl.Config{ClientsPerRound: 3}, tensor.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	return f
}

// saved returns f's SaveState bytes.
func saved(t *testing.T, f *FedCross) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// words builds a state blob word by word in nn's codec layout.
func words(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// refused asserts that LoadState rejects blob having allocated at most
// len(blob) + 1 MiB and leaves f's state exactly as it was.
func refused(t *testing.T, f *FedCross, name string, blob []byte) {
	t.Helper()
	before := saved(t, f)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := f.LoadState(bytes.NewReader(blob))
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Fatalf("%s: hostile state accepted", name)
	}
	if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(len(blob))+1<<20; got > limit {
		t.Fatalf("%s: refusing %d bytes allocated %d", name, len(blob), got)
	}
	if !bytes.Equal(saved(t, f), before) {
		t.Fatalf("%s: refused state changed the algorithm (%v)", name, err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	env := checkpointEnv(t)
	algo := trainedFedCross(t, env)

	restored := initFedCross(t, env)
	if err := restored.LoadState(bytes.NewReader(saved(t, algo))); err != nil {
		t.Fatal(err)
	}
	orig := algo.Middleware()
	back := restored.Middleware()
	if len(orig) != len(back) {
		t.Fatalf("middleware count %d vs %d", len(orig), len(back))
	}
	for i := range orig {
		if orig[i].DistanceSq(back[i]) != 0 {
			t.Fatalf("middleware %d differs after round trip", i)
		}
	}
	// The asynchronous deployment path: GlobalModelGen on the restored
	// state matches the live one.
	g1, g2 := algo.Global(), restored.Global()
	if g1.DistanceSq(g2) != 0 {
		t.Fatal("global model differs after checkpoint restore")
	}
}

func TestCheckpointErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := MustNew(DefaultOptions()).SaveState(&buf); err == nil {
		t.Fatal("SaveState before Init must error")
	}

	env := checkpointEnv(t)
	valid := saved(t, trainedFedCross(t, env))
	target := initFedCross(t, env)
	refused(t, target, "truncated", valid[:len(valid)/2])
	bad := bytes.Clone(valid)
	bad[0] ^= 0xFF // the model count
	refused(t, target, "corrupt count", bad)
	refused(t, target, "empty", nil)
	refused(t, target, "trailing byte", append(bytes.Clone(valid), 0))
}

// TestLoadRejectsHostileHeaders: the middleware count and each vector's
// length are untrusted words, and the format used to let a 20-byte
// stream demand multiple GiB. Every hostile header must be rejected from
// its own bytes — the count against Init's K, the length against Init's
// parameter count — with nothing installed.
func TestLoadRejectsHostileHeaders(t *testing.T) {
	cases := []struct {
		name string
		hdr  []byte
	}{
		{"huge-n", words(3, 1<<34+1)},
		{"max-uint64-n", words(3, ^uint64(0))},
		{"zero-n", words(3, 1)},
		{"huge-k", words(1 << 31)},
		{"one-model", words(1, 76)},
		{"product-over-cap", words(1<<16, 1<<26+1)},
	}
	f := trainedFedCross(t, checkpointEnv(t))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { refused(t, f, c.name, c.hdr) })
	}
}

// TestLoadTruncatedAfterPlausibleHeader checks that a header passing
// validation but followed by a short payload fails before anything is
// allocated for the payload it promises.
func TestLoadTruncatedAfterPlausibleHeader(t *testing.T) {
	refused(t, trainedFedCross(t, checkpointEnv(t)), "short payload", append(words(3, 76), make([]byte, 100)...))
}

// TestLoadStateRejectsHostileRNGPosition: the last eight bytes of a
// FedCross state blob are its generator's position, a replay length. A
// blob rewritten to 2^62 must fail LoadState promptly, not replay for
// centuries; the valid blob still loads. A well-formed blob of the wrong
// shape — two 5-parameter models for Init's three of 75 — is refused too.
func TestLoadStateRejectsHostileRNGPosition(t *testing.T) {
	algo := trainedFedCross(t, checkpointEnv(t))
	valid := saved(t, algo)
	if err := algo.LoadState(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid state: %v", err)
	}
	hostile := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(hostile[len(hostile)-8:], 1<<62)
	start := time.Now()
	refused(t, algo, "position 2^62", hostile)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("refusing the position took %v", d)
	}
	model := []uint64{6, 1, 2, 3, 4, 5} // length + 1, then five parameters
	twoByFive := append(words(append(append([]uint64{2}, model...), model...)...), valid[len(valid)-16:]...)
	refused(t, algo, "2x5 middleware", twoByFive)
}

func TestDisableShuffleAblation(t *testing.T) {
	// With shuffle disabled and a pinned selection, middleware model i
	// always trains on the same client — verify determinism of the
	// assignment by checking two no-shuffle runs agree exactly while a
	// shuffled run differs.
	env := checkpointEnv(t)
	cfg := fl.Config{Rounds: 3, ClientsPerRound: 3, LocalEpochs: 1, BatchSize: 8, LR: 0.05, Momentum: 0, Seed: 4}

	run := func(disable bool, seed int64) fl.History {
		opts := DefaultOptions()
		opts.DisableShuffle = disable
		algo := MustNew(opts)
		c := cfg
		c.Seed = seed
		hist, err := fl.Run(algo, env, c)
		if err != nil {
			t.Fatal(err)
		}
		return *hist
	}
	a := run(true, 4)
	b := run(true, 4)
	if a.Final().TestAcc != b.Final().TestAcc {
		t.Fatal("no-shuffle runs with equal seeds must agree")
	}
}
