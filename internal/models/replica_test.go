package models

import (
	"testing"

	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

func TestReplicasPoolPerArchitecture(t *testing.T) {
	a := Replicas(MLP(4, 3, 2))
	if b := Replicas(MLP(4, 3, 2)); a != b {
		t.Fatal("equal-named factories must share a pool")
	}
	if c := Replicas(MLP(5, 3, 2)); a == c {
		t.Fatal("different architectures must get distinct pools")
	}
	r := a.Get()
	if got, want := len(nn.FlattenParams(r.Net.Params())), len(nn.FlattenParams(MLP(4, 3, 2).New(tensor.NewRNG(0)).Params())); got != want {
		t.Fatalf("leased replica has %d params, want %d", got, want)
	}
	if r.Opt == nil {
		t.Fatal("replica must carry its optimizer")
	}
	r.Reset(0.05, 0.9)
	if r.Opt.LR != 0.05 || r.Opt.Momentum != 0.9 || r.Opt.WeightDecay != 0 {
		t.Fatalf("Reset left optimizer at %+v", r.Opt)
	}
	a.Put(r)
	a.Put(nil) // tolerated, so eval teardown can blanket-Put
}

// TestFactoryNamesEncodeDims guards the replica-pool key invariant: two
// factories that build different architectures must never share a name.
func TestFactoryNamesEncodeDims(t *testing.T) {
	if CharLSTM(20, 6, 4, 8).Name == CharLSTM(20, 6, 4, 16).Name {
		t.Fatal("CharLSTM name must encode the hidden width")
	}
	if CharLSTM(20, 6, 4, 8).Name == CharLSTM(20, 6, 8, 8).Name {
		t.Fatal("CharLSTM name must encode the embedding width")
	}
	if SentLSTM(30, 5, 4, 8).Name == SentLSTM(30, 5, 8, 8).Name {
		t.Fatal("SentLSTM name must encode the embedding width")
	}
}
