package fl

import (
	"strings"
	"testing"

	"fedcross/internal/data"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

func TestParallelForCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 7, 64} {
		n := 100
		hits := make([]int, n) // distinct indices, no synchronisation needed
		parallelFor(n, workers, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, h)
			}
		}
	}
}

func TestParallelForEmpty(t *testing.T) {
	parallelFor(0, 4, func(i int) { t.Fatal("fn called for n=0") })
}

// trainJobs builds identically-seeded job lists so serial and parallel
// TrainAll runs can be compared bit-for-bit.
func trainJobs(env *Env, init nn.ParamVector, seed int64) []LocalJob {
	rng := tensor.NewRNG(seed)
	jobs := make([]LocalJob, 0, env.NumClients())
	for ci := 0; ci < env.NumClients(); ci++ {
		jobs = append(jobs, LocalJob{
			Client: ci,
			Spec:   LocalSpec{Init: init, Epochs: 2, BatchSize: 16, LR: 0.05, Momentum: 0.5},
			RNG:    rng.Split(),
		})
	}
	return jobs
}

func TestTrainAllShardOverride(t *testing.T) {
	env := testEnv(31, 3)
	init := nn.FlattenParams(env.Model.New(tensor.NewRNG(32)).Params())
	override := env.Fed.Clients[2]
	jobs := []LocalJob{{
		Client: 0, // must be ignored in favour of Shard
		Shard:  override,
		Spec:   LocalSpec{Init: init, Epochs: 1, BatchSize: 16, LR: 0.05},
		RNG:    tensor.NewRNG(33),
	}}
	results, err := TrainAll(env, jobs, Limit(2))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Samples != override.Len() {
		t.Fatalf("shard override ignored: trained on %d samples, want %d", results[0].Samples, override.Len())
	}
}

func TestTrainAllReportsFirstErrorByJobIndex(t *testing.T) {
	env := testEnv(41, 3)
	init := nn.FlattenParams(env.Model.New(tensor.NewRNG(42)).Params())
	empty := &data.Dataset{X: tensor.Zeros(0, 12), Classes: 4}
	jobs := []LocalJob{
		{Client: 0, Spec: LocalSpec{Init: init, Epochs: 1, BatchSize: 16, LR: 0.05}, RNG: tensor.NewRNG(43)},
		{Client: 1, Shard: empty, Spec: LocalSpec{Init: init, Epochs: 1, BatchSize: 16, LR: 0.05}, RNG: tensor.NewRNG(44)},
	}
	_, err := TrainAll(env, jobs, Limit(4))
	if err == nil {
		t.Fatal("expected error from the empty shard")
	}
	if !strings.Contains(err.Error(), "client 1") {
		t.Fatalf("error should name the failing client: %v", err)
	}
}

func TestEvaluateWorkerInvariant(t *testing.T) {
	env := testEnv(51, 2)
	vec := nn.FlattenParams(env.Model.New(tensor.NewRNG(52)).Params())
	accSerial, lossSerial, err := evaluate(env.Model, vec, env.Fed.Test, 7, Limit(1))
	if err != nil {
		t.Fatal(err)
	}
	accPar, lossPar, err := evaluate(env.Model, vec, env.Fed.Test, 7, Limit(8))
	if err != nil {
		t.Fatal(err)
	}
	if accSerial != accPar || lossSerial != lossPar {
		t.Fatalf("evaluate differs across worker counts: (%v,%v) vs (%v,%v)",
			accSerial, lossSerial, accPar, lossPar)
	}
}
