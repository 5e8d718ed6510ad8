package fl

import (
	"strings"
	"testing"

	"fedcross/internal/data"
	"fedcross/internal/models"
)

func asyncCfg(seed int64, par int) Config {
	return Config{
		Rounds: 6, ClientsPerRound: 4, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Momentum: 0.5, EvalEvery: 2, Seed: seed, Parallelism: par,
	}
}

func TestAsyncOptionsValidate(t *testing.T) {
	for _, bad := range []AsyncOptions{
		{Buffer: -1},
		{InFlight: -2},
		{Commits: -1},
		{StalenessExp: -0.5},
		{ServerLR: -1},
		{ComputeSec: -1},
		{ComputeJitter: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%+v should not validate", bad)
		}
	}
	if err := (AsyncOptions{}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncRunsAndAccounts(t *testing.T) {
	env := testEnv(31, 8)
	opts := AsyncOptions{Buffer: 3, InFlight: 4, Commits: 5}
	hist, err := RunAsync(env, asyncCfg(1, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Algorithm != "fedbuff" {
		t.Fatalf("algorithm %q", hist.Algorithm)
	}
	if got, want := hist.Comm.ModelsUp, 3*5; got != want {
		t.Fatalf("arrivals %d, want B·commits = %d", got, want)
	}
	// One dispatch per arrival plus the still-in-flight tail.
	if got, want := hist.Comm.ModelsDown, 3*5+4-1; got != want {
		t.Fatalf("dispatches %d, want %d", got, want)
	}
	if hist.BytesDown <= 0 || hist.BytesUp <= 0 {
		t.Fatalf("bytes not accounted: down=%d up=%d", hist.BytesDown, hist.BytesUp)
	}
	if hist.Final().Round != 5 {
		t.Fatalf("final commit %d, want 5", hist.Final().Round)
	}
	// EvalEvery=2 over 5 commits → commits 2, 4 and the final 5.
	if len(hist.Metrics) != 3 {
		t.Fatalf("evals %d, want 3", len(hist.Metrics))
	}
}

func TestAsyncLearns(t *testing.T) {
	env := testEnv(33, 8)
	hist, err := RunAsync(env, asyncCfg(2, 0), AsyncOptions{Buffer: 4, Commits: 10})
	if err != nil {
		t.Fatal(err)
	}
	if hist.BestAcc() < 0.4 {
		t.Fatalf("async training should learn the easy env: best acc %v", hist.BestAcc())
	}
}

// TestAsyncNoReplicaLeakOnError: an error mid-fold (a client with an
// empty shard aborts the batched training pass) must not leak leased
// replicas — the pool's outstanding-lease count returns to zero. The env
// uses a dedicated architecture so no other test's leases show up in the
// counter.
func TestAsyncNoReplicaLeakOnError(t *testing.T) {
	env := testEnv(34, 8)
	env.Model = models.MLP(12, 17, 4) // unique dims → private replica pool
	env.Fed.Clients[3] = &data.Dataset{Classes: 4}
	pool := models.Replicas(env.Model)

	_, err := RunAsync(env, asyncCfg(3, 4), AsyncOptions{Buffer: 2, InFlight: 6, Commits: 8})
	if err == nil || !strings.Contains(err.Error(), "empty shard") {
		t.Fatalf("want the empty-shard failure, got %v", err)
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("error path leaked %d replica leases", n)
	}

	// The sync engine holds the same invariant through its error exit.
	cfg := asyncCfg(3, 4)
	cfg.Rounds, cfg.ClientsPerRound = 4, 8 // select everyone → hit the empty shard
	if _, err := Run(&wireAlgo{}, env, cfg); err == nil {
		t.Fatal("sync run should also fail on the empty shard")
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("sync error path leaked %d replica leases", n)
	}
}

// TestAsyncStalenessWeighting: with a strong staleness exponent, stale
// folds are damped — the run still progresses and stays finite.
func TestAsyncStalenessWeighting(t *testing.T) {
	env := testEnv(35, 8)
	hist, err := RunAsync(env, asyncCfg(4, 0), AsyncOptions{
		Buffer: 2, InFlight: 8, Commits: 6, StalenessExp: 2, ComputeJitter: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range hist.Metrics {
		if m.TestAcc < 0 || m.TestAcc > 1 {
			t.Fatalf("accuracy out of range: %+v", m)
		}
	}
}
