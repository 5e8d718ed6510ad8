package fl

import (
	"reflect"
	"testing"

	"fedcross/internal/data"
	"fedcross/internal/models"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// sourceEnv builds the standard test environment with its client shards
// in the eager Clients slice, or, when lazy, synthesized on demand from
// the same partition seed through a deliberately tiny LRU.
func sourceEnv(seed int64, clients int, het data.Heterogeneity, lazy bool) *Env {
	cfg := data.VisionConfig{
		Classes: 4, Features: 12,
		TrainPerClass: 40, TestPerClass: 15,
		ModesPerClass: 2, Sep: 1.2, Noise: 0.3, Seed: seed,
	}
	if lazy {
		return &Env{Fed: data.BuildVisionLazy(cfg, clients, het, seed+1, 3, 0), Model: models.MLP(12, 16, 4)}
	}
	return &Env{Fed: data.BuildVision(cfg, clients, het, seed+1), Model: models.MLP(12, 16, 4)}
}

// TestEvaluatePerClientLeasesDrainOnError: a failing per-client pass must
// release every shard lease on the way out (satellite: streaming
// evaluation with zero-leak error paths).
func TestEvaluatePerClientLeasesDrainOnError(t *testing.T) {
	env := sourceEnv(29, 6, data.Heterogeneity{IID: true}, true)
	// A wrong-length vector fails replica loading inside every client's
	// evaluation.
	if _, err := EvaluatePerClient(env, make(nn.ParamVector, 3), 32, Limit(0)); err == nil {
		t.Fatal("expected load error from truncated parameter vector")
	}
	if n := env.Fed.OutstandingLeases(); n != 0 {
		t.Fatalf("%d leases outstanding after failed evaluation", n)
	}
	// And the happy path agrees with the eager federation.
	vec := nn.FlattenParams(env.Model.New(tensor.NewRNG(3)).Params())
	repLazy, err := EvaluatePerClient(env, vec, 32, Limit(0))
	if err != nil {
		t.Fatal(err)
	}
	repEager, err := EvaluatePerClient(sourceEnv(29, 6, data.Heterogeneity{IID: true}, false), vec, 32, Limit(0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repLazy, repEager) {
		t.Fatalf("per-client reports diverge:\n%+v\nvs\n%+v", repLazy, repEager)
	}
	if n := env.Fed.OutstandingLeases(); n != 0 {
		t.Fatalf("%d leases outstanding after evaluation", n)
	}
}

// TestTotalTrainSamplesNeverMaterializes: weight lookups must run off
// assignment metadata alone — the lazy cache stays empty.
func TestTotalTrainSamplesNeverMaterializes(t *testing.T) {
	env := sourceEnv(31, 200, data.Heterogeneity{Beta: 0.3}, true)
	lz, ok := env.Fed.Source.(*data.Lazy)
	if !ok {
		t.Fatalf("expected *data.Lazy source, got %T", env.Fed.Source)
	}
	total := env.Fed.TotalTrainSamples()
	if total != 4*40 {
		t.Fatalf("TotalTrainSamples = %d, want 160", total)
	}
	for ci := 0; ci < env.NumClients(); ci++ {
		_ = env.Fed.Size(ci)
	}
	if lz.Resident() != 0 {
		t.Fatalf("Size/TotalTrainSamples synthesized %d shards", lz.Resident())
	}
}
