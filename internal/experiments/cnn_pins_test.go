package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"testing"

	"fedcross/internal/data"
	"fedcross/internal/fl"
)

// TestCNNHistoryPins holds three rounds of the paper's model — both
// convolutions, both pools, short last batches — to the byte under the
// sync engine (FedCross, FedAvg) and the async one. The SHA-256 of each
// gob-encoded History was recorded from the commit before Conv2D's
// direct kernels and Sequential.BackwardParams landed, when the layer
// still lowered the minibatch through im2col.
func TestCNNHistoryPins(t *testing.T) {
	p := TinyProfile()
	p.Rounds = 3
	p.EvalEvery = 1
	run := func(name string) (*fl.History, error) {
		env, err := p.BuildEnv("vision10", "cnn", data.Heterogeneity{Beta: 0.5}, 1)
		if err != nil {
			return nil, err
		}
		if name == "async" {
			return fl.RunAsync(env, p.Config(1), fl.AsyncOptions{Buffer: 2, InFlight: 4, Commits: 3})
		}
		algo, err := NewAlgorithm(name)
		if err != nil {
			return nil, err
		}
		return fl.Run(algo, env, p.Config(1))
	}
	for _, pin := range []struct{ name, want string }{
		{"fedcross", "69f9b1df7f3451459ab8cd27c4e3db7c60cb57521dcdbeedde7e0eb039b481b6"},
		{"fedavg", "d5b599f2006721a9b8e67df2e452b4323a5e11ad7c775bc9e02aa8b3141e45a7"},
		{"async", "945c3f626c73b3bbed9145821119478f717a42d472a617f62e878a18ec4250ba"},
	} {
		hist, err := run(pin.name)
		if err != nil {
			t.Fatalf("%s: %v", pin.name, err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(hist); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != pin.want {
			t.Errorf("%s: history sha256 %s, pinned %s", pin.name, got, pin.want)
		}
	}
}
