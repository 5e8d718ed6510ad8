package fl

import (
	"fmt"
	"slices"
	"strings"
	"sync"
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

// TestTrainAllClaimsLongestFirst: workers claim jobs by descending shard
// size (a job's own Shard counting over its client's), ties by job
// index; results stay in job order whatever the claim order; and the
// error that wins is keyed by the job index, not the claim.
func TestTrainAllClaimsLongestFirst(t *testing.T) {
	env := sourceEnv(37, 6, data.Heterogeneity{Beta: 0.3}, false)
	init := nn.FlattenParams(env.Model.New(tensor.NewRNG(38)).Params())
	newJobs := func() []LocalJob {
		jobs := trainJobs(env, init, 39)
		jobs[5].Shard = env.Fed.Clients[2] // ties with job 2, which must go first
		return jobs
	}
	jobs := newJobs()
	size := func(i int) int {
		if jobs[i].Shard != nil {
			return jobs[i].Shard.Len()
		}
		return env.Fed.Size(jobs[i].Client)
	}
	order := longestFirst(env, jobs)
	for c := 1; c < len(order); c++ {
		a, b := order[c-1], order[c]
		if size(a) < size(b) || size(a) == size(b) && a > b {
			t.Fatalf("claim order %v: job %d (%d samples) before job %d (%d samples)", order, a, size(a), b, size(b))
		}
	}
	if slices.IsSorted(order) {
		t.Fatalf("claim order %v is job order: the shards are too even to test anything", order)
	}

	serial, err := TrainAll(env, jobs, Limit(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := TrainAll(env, newJobs(), Limit(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Samples != size(i) || !slices.Equal(serial[i].Params, parallel[i].Params) {
			t.Fatalf("job %d: results out of job order", i)
		}
	}

	// Jobs 1 and 3 fail, and 3 is claimed first. A barrier holds all four
	// in flight before either fails, so both failures are recorded and
	// job 1's must win.
	var entered sync.WaitGroup
	entered.Add(4)
	err = parallelForErr(4, Limit(4), []int{3, 2, 1, 0}, func(i int) error {
		entered.Done()
		entered.Wait()
		if i%2 == 1 {
			return fmt.Errorf("job %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "job 1" {
		t.Fatalf("err = %v, want job 1's (the lowest failing job index)", err)
	}
}
