package fl

import (
	"bytes"
	"log"
	"math"
	"strings"
	"testing"

	"fedcross/internal/tensor"
)

func TestPrivacyOptionsValidate(t *testing.T) {
	if err := (PrivacyOptions{ClipNorm: 1, NoiseStd: 0.1}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (PrivacyOptions{ClipNorm: -1}).Validate(); err == nil {
		t.Fatal("negative clip must fail")
	}
	if err := (PrivacyOptions{NoiseStd: -1}).Validate(); err == nil {
		t.Fatal("negative noise must fail")
	}
	if err := (PrivacyOptions{NoiseStd: math.Inf(1)}).Validate(); err == nil {
		t.Fatal("infinite noise must fail")
	}
	if _, err := WithPrivacy(&stubAlgo{}, PrivacyOptions{NoiseStd: -1}); err == nil {
		t.Fatal("WithPrivacy must validate")
	}
}

func TestPrivacyWrapperNamesAndNoise(t *testing.T) {
	env := testEnv(21, 4)
	inner := &stubAlgo{}
	wrapped, err := WithPrivacy(inner, PrivacyOptions{NoiseStd: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.Name() != "stub+dp" {
		t.Fatalf("name %q", wrapped.Name())
	}
	cfg := Config{Rounds: 2, ClientsPerRound: 2, LocalEpochs: 1, BatchSize: 16, LR: 0.05, Seed: 1}
	if _, err := Run(wrapped, env, cfg); err != nil {
		t.Fatal(err)
	}
	// The released model differs from the raw one (noise applied) but not
	// wildly (std 0.05).
	raw := inner.Global()
	released := wrapped.Global()
	d := raw.DistanceSq(released)
	if d == 0 {
		t.Fatal("release should be perturbed")
	}
	perCoord := d / float64(len(raw))
	if perCoord > 0.05*0.05*10 {
		t.Fatalf("noise too large: mean squared %v", perCoord)
	}
	// The release is memoized within a round: a second call (evaluate then
	// deploy) returns the same perturbed model rather than drawing fresh
	// noise and double-spending the privacy budget.
	r2 := wrapped.Global()
	if released.DistanceSq(r2) != 0 {
		t.Fatal("repeated Global() in one round must return the same release")
	}
}

// TestPrivacyReleaseIdempotentPerRound is the regression test for the
// double-release bug: Global() used to draw fresh Gaussian noise and
// advance the clipping anchor on every call, so evaluating and then
// deploying in one round published two different models. The release must
// be memoized per training round and refreshed only after the next Round.
func TestPrivacyReleaseIdempotentPerRound(t *testing.T) {
	env := testEnv(31, 4)
	inner := &stubAlgo{}
	wrapped, err := WithPrivacy(inner, PrivacyOptions{ClipNorm: 5, NoiseStd: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Rounds: 1, ClientsPerRound: 2, LocalEpochs: 1, BatchSize: 16, LR: 0.05, Seed: 1}
	if err := wrapped.Init(env, cfg, tensor.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	if err := wrapped.Round(0, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	a := wrapped.Global()
	b := wrapped.Global()
	if a.DistanceSq(b) != 0 {
		t.Fatal("two releases within one round must be identical")
	}
	// Mutating the returned vector must not corrupt the memoized release.
	a[0] += 100
	if c := wrapped.Global(); c.DistanceSq(b) != 0 {
		t.Fatal("caller mutation leaked into the memoized release")
	}
	// The next round invalidates the memo: state changed, new release.
	if err := wrapped.Round(1, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	d := wrapped.Global()
	if d.DistanceSq(b) == 0 {
		t.Fatal("a new round must produce a fresh release")
	}
	// Re-initialising for a new run discards the memo and the clipping
	// anchor — nothing from the previous experiment may leak forward.
	if err := wrapped.Init(env, cfg, tensor.NewRNG(2)); err != nil {
		t.Fatal(err)
	}
	pw := wrapped.(*privacyWrapper)
	if pw.released != nil || pw.ref != nil {
		t.Fatal("Init must clear the memoized release and the clipping anchor")
	}
	if e := wrapped.Global(); e.DistanceSq(d) == 0 {
		t.Fatal("post-Init release must not replay the previous run's memo")
	}
}

// TestPrivacyClipSkipSurfaced pins that a clipping anchor whose length no
// longer matches the release is reported instead of silently skipped.
func TestPrivacyClipSkipSurfaced(t *testing.T) {
	env := testEnv(33, 3)
	inner := &stubAlgo{}
	wrapped, err := WithPrivacy(inner, PrivacyOptions{ClipNorm: 0.1, NoiseStd: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Rounds: 1, ClientsPerRound: 2, LocalEpochs: 1, BatchSize: 16, LR: 0.05, Seed: 1}
	if err := wrapped.Init(env, cfg, tensor.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	_ = wrapped.Global() // anchors the reference
	pw := wrapped.(*privacyWrapper)
	pw.released = nil
	pw.ref = pw.ref[:len(pw.ref)-1] // simulate an architecture change

	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	defer log.SetOutput(prev)
	_ = wrapped.Global()
	if !strings.Contains(buf.String(), "clipping skipped") {
		t.Fatalf("length mismatch must be surfaced, log output: %q", buf.String())
	}
}

func TestPrivacyClippingBoundsRelease(t *testing.T) {
	inner := &stubAlgo{}
	env := testEnv(22, 3)
	cfg := Config{Rounds: 1, ClientsPerRound: 2, LocalEpochs: 1, BatchSize: 16, LR: 0.05, Seed: 1}
	if err := inner.Init(env, cfg, tensor.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	wrapped, err := WithPrivacy(inner, PrivacyOptions{ClipNorm: 0.1, NoiseStd: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	first := wrapped.Global() // anchors the reference
	// Push the inner model far away.
	big := inner.global.Clone()
	for i := range big {
		big[i] += 5
	}
	inner.global = big
	// Invalidate the per-round memo (as the next Round would) so the
	// second call computes a fresh, clipped release.
	wrapped.(*privacyWrapper).released = nil
	second := wrapped.Global()
	delta := second.Sub(first)
	if n := delta.Norm(); n > 0.1+1e-9 {
		t.Fatalf("release moved %v, clip is 0.1", n)
	}
}
