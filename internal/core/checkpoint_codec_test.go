package core

import (
	"bytes"
	"testing"

	"fedcross/internal/fl"
)

// TestCheckpointRoundTripPerCodec pins that checkpointing composes with
// every wire codec: a FedCross run whose middleware state was shaped by a
// lossy transport must SaveState and LoadState bit-exactly — the checkpoint always
// captures the server's (wire-visible) state, whatever the codec did to
// the payloads along the way.
func TestCheckpointRoundTripPerCodec(t *testing.T) {
	for _, codec := range []string{"identity", "fp16", "int8", "topk"} {
		t.Run(codec, func(t *testing.T) {
			env := checkpointEnv(t)
			algo := MustNew(DefaultOptions())
			cfg := fl.Config{
				Rounds: 2, ClientsPerRound: 3, LocalEpochs: 1, BatchSize: 8,
				LR: 0.05, Momentum: 0, Seed: 1,
				Transport: fl.TransportOptions{Codec: codec},
			}
			if _, err := fl.Run(algo, env, cfg); err != nil {
				t.Fatal(err)
			}

			restored := initFedCross(t, env)
			if err := restored.LoadState(bytes.NewReader(saved(t, algo))); err != nil {
				t.Fatal(err)
			}
			orig, back := algo.Middleware(), restored.Middleware()
			if len(orig) != len(back) {
				t.Fatalf("middleware count %d vs %d", len(orig), len(back))
			}
			for i := range orig {
				if orig[i].DistanceSq(back[i]) != 0 {
					t.Fatalf("codec %s: middleware %d differs after checkpoint round trip", codec, i)
				}
			}
			if algo.Global().DistanceSq(restored.Global()) != 0 {
				t.Fatalf("codec %s: global model differs after restore", codec)
			}
		})
	}
}
