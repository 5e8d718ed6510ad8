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

// TestCNNHistoryPins holds three rounds of a run to the byte: the SHA-256
// of each cell's gob-encoded History. The first three cells are the
// paper's model — both convolutions, both pools, short last batches —
// under the sync engine (FedCross, FedAvg) and the async one, recorded
// from the commit before Conv2D's direct kernels and
// Sequential.BackwardParams landed. The tiny-MLP cells each put one more
// engine stream or path under the same pin — dropout, the per-round link
// stream, the adversary (upload corruption, shadow labels, the sybil
// recount), the fault and churn plans, a Selector, the stateful baselines,
// the lazy source with lookahead, and the async engine's own streams —
// recorded from the commit before both engines moved onto one session.
func TestCNNHistoryPins(t *testing.T) {
	faults := fl.FaultOptions{CrashRate: 0.15, DropRate: 0.3, TruncateRate: 0.2, CorruptRate: 0.2,
		DuplicateRate: 0.3, StraggleRate: 0.3, StallRate: 0.5}
	for _, pin := range []struct {
		name, algo, model string
		clients           int // 0 keeps the tiny profile's eager population
		tweak             func(*fl.Config)
		want              string
	}{
		{"fedcross", "fedcross", "cnn", 0, nil, "69f9b1df7f3451459ab8cd27c4e3db7c60cb57521dcdbeedde7e0eb039b481b6"},
		{"fedavg", "fedavg", "cnn", 0, nil, "d5b599f2006721a9b8e67df2e452b4323a5e11ad7c775bc9e02aa8b3141e45a7"},
		{"async", "async", "cnn", 0, nil, "945c3f626c73b3bbed9145821119478f717a42d472a617f62e878a18ec4250ba"},
		{"dropout", "fedavg", "mlp", 0, func(c *fl.Config) { c.DropoutRate = 0.3 }, "1a2102486fef99a48db1b75bb67d0976fb311173bf9ffb6f278103ee00285c1d"},
		{"link", "fedcross", "mlp", 0, func(c *fl.Config) {
			c.Transport = fl.TransportOptions{Codec: "int8", Network: "lte", DeadlineSec: 0.12, Retries: 1}
		}, "6b225cd4009905d0111e4dabb79c7f6a3da6d5f4d27f0d3518a91b4b6a72a715"},
		{"signflip", "fedavg", "mlp", 0, func(c *fl.Config) {
			c.Adversary = fl.AdversaryOptions{Attack: fl.AttackSignFlip, Frac: 0.25}
		}, "aed747542a41379c77c256dddaef5933bf100d433450852afea4f7e6a2530e95"},
		{"labelflip", "fedavg", "mlp", 0, func(c *fl.Config) {
			c.Adversary = fl.AdversaryOptions{Attack: fl.AttackLabelFlip, Frac: 0.25}
		}, "67bc7c9170d4ba4f4181cc28ef281ec049fafdbf6633a441fa711ec163832e2c"},
		{"sybil", "fedavg", "mlp", 0, func(c *fl.Config) {
			c.Adversary = fl.AdversaryOptions{Attack: fl.AttackScale, Virtual: 12}
		}, "9745e737d61d79b03edcf10f42b520b001ac9ec0bd1b46a798944e85aad071db"},
		{"faults", "fedcross", "mlp", 0, func(c *fl.Config) {
			c.Faults, c.MinUploads, c.ClientsPerRound = faults, 5, 8
			c.Transport = fl.TransportOptions{Codec: "int8", Network: "lte", DeadlineSec: 0.5, Retries: 1, RetryBackoffSec: 0.1}
		}, "d46182689ea4dfde52433ab99397cd3ce1199c54fa85064be247c98e3fdd8a39"},
		{"churn", "fedavg", "mlp", 0, func(c *fl.Config) {
			c.Churn, c.ClientsPerRound = fl.ChurnOptions{Availability: 0.5, PeriodRounds: 4}, 12
		}, "8d9ee07584046a77e9b8339cda1bc8ae8da0a23feee42414bd35b88931fe864c"},
		{"clusamp", "clusamp", "mlp", 0, nil, "fbdb7e8c653c4e70b1537b8d77c9b72a6873cff0e59b5cefa995f520aaf1d356"},
		{"scaffold", "scaffold", "mlp", 0, nil, "603e8ab2907d32bd591ddd9990eab227a2dbb3625a447eb4625b7454f3cdf723"},
		{"fedgen", "fedgen", "mlp", 0, nil, "1e6189bdfd3d0ec0c0b7c5a8b020295f8c8d9448a1fa701caf8a4d588856d657"},
		{"lazy-prefetch", "fedavg", "mlp", LazyClientCutoff, func(c *fl.Config) { c.PrefetchRounds = 1 }, "499899af38ca1b6c4d1a4be9fc9527b55f2beb3bfbad8f0efead2c904ec7f524"},
		{"async-faulted", "async", "mlp", 0, func(c *fl.Config) {
			c.Rounds, c.MinUploads = 6, 2
			c.Faults = fl.FaultOptions{CrashRate: 0.15, DropRate: 0.15, DuplicateRate: 0.4, StraggleRate: 0.3, StallRate: 0.5}
			c.Transport = fl.TransportOptions{Network: "lte"}
			c.Adversary = fl.AdversaryOptions{Attack: fl.AttackSignFlip, Frac: 0.25}
		}, "9ae064fc3d7afd39e7344ee60aec7a38a0e9a48afef541e0fd6b80c44e28b442"},
	} {
		p := TinyProfile()
		p.Rounds = 3
		p.EvalEvery = 1
		if pin.clients > 0 {
			p.NumClients = pin.clients
		}
		env, err := p.BuildEnv("vision10", pin.model, data.Heterogeneity{Beta: 0.5}, 1)
		if err != nil {
			t.Fatalf("%s: %v", pin.name, err)
		}
		cfg := p.Config(1)
		if pin.tweak != nil {
			pin.tweak(&cfg)
		}
		var hist *fl.History
		if pin.algo == "async" {
			hist, err = fl.RunAsync(env, cfg, fl.AsyncOptions{Buffer: 2, InFlight: 4, Commits: cfg.Rounds})
		} else {
			var algo fl.Algorithm
			if algo, err = NewAlgorithm(pin.algo); err == nil {
				hist, err = fl.Run(algo, env, cfg)
			}
		}
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
