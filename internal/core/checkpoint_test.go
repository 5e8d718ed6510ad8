package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"fedcross/internal/data"
	"fedcross/internal/fl"
	"fedcross/internal/models"
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

func TestCheckpointRoundTrip(t *testing.T) {
	env := checkpointEnv(t)
	algo := trainedFedCross(t, env)

	var buf bytes.Buffer
	if err := algo.Save(&buf); err != nil {
		t.Fatal(err)
	}

	restored := MustNew(DefaultOptions())
	if err := restored.Load(bytes.NewReader(buf.Bytes())); err != nil {
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
	fresh := MustNew(DefaultOptions())
	var buf bytes.Buffer
	if err := fresh.Save(&buf); err == nil {
		t.Fatal("Save before Init must error")
	}

	env := checkpointEnv(t)
	algo := trainedFedCross(t, env)
	if err := algo.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// Truncated stream.
	trunc := buf.Bytes()[:buf.Len()/2]
	if err := MustNew(DefaultOptions()).Load(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated checkpoint must error")
	}
	// Corrupt magic.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[0] ^= 0xFF
	if err := MustNew(DefaultOptions()).Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic must error")
	}
	// Empty stream.
	if err := MustNew(DefaultOptions()).Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty checkpoint must error")
	}
}

// checkpointHeader builds a raw 16-byte header with the given counts.
func checkpointHeader(magic, k uint32, n uint64) []byte {
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], k)
	binary.LittleEndian.PutUint64(hdr[8:], n)
	return hdr
}

// TestLoadRejectsHostileHeaders is the regression test for the unbounded
// header-driven allocation: Load used to accept n up to 2³⁴ and allocate
// 8·n bytes before reading any payload, so a 20-byte stream could demand
// multiple GiB. Every hostile header must be rejected from the 16 header
// bytes alone.
func TestLoadRejectsHostileHeaders(t *testing.T) {
	cases := []struct {
		name string
		hdr  []byte
	}{
		{"huge-n", checkpointHeader(checkpointMagic, 2, 1<<34)},
		{"max-uint64-n", checkpointHeader(checkpointMagic, 2, ^uint64(0))},
		{"zero-n", checkpointHeader(checkpointMagic, 2, 0)},
		{"huge-k", checkpointHeader(checkpointMagic, 1<<31, 16)},
		{"one-model", checkpointHeader(checkpointMagic, 1, 16)},
		{"product-over-cap", checkpointHeader(checkpointMagic, 1<<16, 1<<26)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := MustNew(DefaultOptions())
			if err := f.Load(bytes.NewReader(c.hdr)); err == nil {
				t.Fatalf("hostile header %q must be rejected", c.name)
			}
			if f.middleware != nil {
				t.Fatal("failed Load must not install partial state")
			}
		})
	}
}

// TestLoadTruncatedAfterPlausibleHeader checks that a header passing
// validation but followed by a short payload fails with bounded work —
// the chunked reader stops at the actual stream end.
func TestLoadTruncatedAfterPlausibleHeader(t *testing.T) {
	raw := append(checkpointHeader(checkpointMagic, 8, 1<<20), make([]byte, 4096)...)
	if err := MustNew(DefaultOptions()).Load(bytes.NewReader(raw)); err == nil {
		t.Fatal("truncated payload must error")
	}
}

// TestLoadStateRejectsHostileRNGPosition: the last eight bytes of a
// FedCross state blob are its generator's position, a replay length. A
// blob rewritten to 2^62 must fail LoadState promptly, not replay for
// centuries; the valid blob still loads.
func TestLoadStateRejectsHostileRNGPosition(t *testing.T) {
	algo := trainedFedCross(t, checkpointEnv(t))
	var buf bytes.Buffer
	if err := algo.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	if err := algo.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("valid state: %v", err)
	}
	hostile := bytes.Clone(buf.Bytes())
	binary.LittleEndian.PutUint64(hostile[len(hostile)-8:], 1<<62)
	start := time.Now()
	if err := algo.LoadState(bytes.NewReader(hostile)); err == nil {
		t.Fatal("a generator position of 2^62 must be refused")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("refusing the position took %v", d)
	}
}

func TestCheckpointResumeTraining(t *testing.T) {
	// A restored instance can continue training where the original left
	// off (new rounds work against the loaded middleware list).
	env := checkpointEnv(t)
	algo := trainedFedCross(t, env)
	var buf bytes.Buffer
	if err := algo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := MustNew(DefaultOptions())
	if err := restored.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Re-init runtime wiring, then overwrite middleware with the
	// checkpoint (Init resets middleware, so load afterwards).
	cfg := fl.Config{Rounds: 1, ClientsPerRound: 3, LocalEpochs: 1, BatchSize: 8, LR: 0.05, Momentum: 0, Seed: 9}
	if _, err := fl.Run(restored, env, cfg); err != nil {
		t.Fatal(err)
	}
	if err := restored.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := restored.Round(0, []int{0, 1, 2}); err != nil {
		t.Fatalf("resumed round failed: %v", err)
	}
	if restored.Global().DistanceSq(algo.Global()) == 0 {
		t.Fatal("resumed training should move the global model")
	}
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
