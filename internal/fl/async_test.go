package fl

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

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
		Buffer: 2, InFlight: 8, Commits: 6, StalenessExp: 2,
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

// emptyShardSource serves client bad an empty shard while reporting its
// real size, so selection admits it and its local pass fails. Leases
// still go through the wrapped source, which counts them.
type emptyShardSource struct {
	data.ClientSource
	bad int
}

func (s emptyShardSource) Shard(id int) *data.Dataset {
	ds := s.ClientSource.Shard(id)
	if id == s.bad {
		return &data.Dataset{Classes: ds.Classes}
	}
	return ds
}

// TestAsyncPipelineInvariance: the standing training queue decides when
// and where a job trains, never what it computes. The history and the
// snapshot at every commit are the same bytes at Parallelism 1, 2 and 8
// and under a one-token budget, benign and under crash, drop and
// straggle faults. Every way out of RunAsync — a finished run, ErrStopped
// and a training error — leaves no replica lease, shard lease, budget
// token or trainer goroutine behind.
func TestAsyncPipelineInvariance(t *testing.T) {
	envWith := func(bad int) *Env {
		base := sourceEnv(71, 8, data.Heterogeneity{Beta: 0.5}, false)
		fed := *base.Fed
		fed.Source, fed.Clients = emptyShardSource{data.NewMaterialized(base.Fed.Clients), bad}, nil
		// Unique dims give the test a private replica pool.
		return &Env{Fed: &fed, Model: models.MLP(12, 21, 4)}
	}
	settings := []struct {
		name   string
		par    int
		budget *WorkerBudget
	}{{"par1", 1, nil}, {"par2", 2, nil}, {"par8", 8, nil}, {"budget1", 8, NewWorkerBudget(1)}}
	opts := AsyncOptions{Buffer: 2, InFlight: 5, Commits: 6}
	dir := t.TempDir()

	drained := func(what string, env *Env, b *WorkerBudget) {
		t.Helper()
		if n := models.Replicas(env.Model).Outstanding(); n != 0 {
			t.Errorf("%s: %d replica leases outstanding", what, n)
		}
		if n := env.Fed.OutstandingLeases(); n != 0 {
			t.Errorf("%s: %d shard leases outstanding", what, n)
		}
		if got := b.TryAcquire(b.Cap()); got != b.Cap() {
			t.Errorf("%s: %d of %d budget tokens returned", what, got, b.Cap())
		} else {
			b.ReleaseN(got)
		}
		// close joins every trainer before RunAsync returns; a joined one
		// may still be unwinding its last frame, so give it that long.
		for start := time.Now(); trainersLive() > 0; runtime.Gosched() {
			if time.Since(start) > 5*time.Second {
				t.Errorf("%s: %d trainer goroutines still running", what, trainersLive())
				break
			}
		}
	}

	for _, faults := range []struct {
		name string
		f    FaultOptions
	}{
		{"benign", FaultOptions{}},
		{"faulted", FaultOptions{CrashRate: 0.2, DropRate: 0.2, StraggleRate: 0.2}},
	} {
		var want *History
		wantSnaps := map[int][]byte{}
		for _, s := range settings {
			env := envWith(-1)
			cfg := asyncCfg(7, s.par)
			cfg.Budget, cfg.Faults = s.budget, faults.f
			what := faults.name + "-" + s.name
			h, err := RunAsync(env, cfg, opts)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			drained(what+" finished", env, s.budget)
			if want == nil {
				want = h
			} else if !reflect.DeepEqual(h, want) {
				t.Errorf("%s: history differs from %s's", what, settings[0].name)
			}
			for stop := 1; stop < opts.Commits; stop++ {
				killed := cfg
				killed.Checkpoint = CheckpointOptions{Path: filepath.Join(dir, fmt.Sprintf("%s-%d.ckpt", what, stop)), Every: 1, StopAfterRound: stop}
				if _, err := RunAsync(env, killed, opts); !errors.Is(err, ErrStopped) {
					t.Fatalf("%s, stopped after commit %d: %v, want ErrStopped", what, stop, err)
				}
				drained(fmt.Sprintf("%s stopped after commit %d", what, stop), env, s.budget)
				snap, err := os.ReadFile(killed.Checkpoint.Path)
				if err != nil {
					t.Fatal(err)
				}
				if wantSnaps[stop] == nil {
					wantSnaps[stop] = snap
				} else if !bytes.Equal(snap, wantSnaps[stop]) {
					t.Errorf("%s: the snapshot after commit %d differs from %s's", what, stop, settings[0].name)
				}
			}
		}
	}

	var wantErr string
	for _, s := range settings {
		env := envWith(3)
		cfg := asyncCfg(7, s.par)
		cfg.Budget = s.budget
		_, err := RunAsync(env, cfg, AsyncOptions{Buffer: 2, InFlight: 6, Commits: 8})
		if err == nil || !strings.Contains(err.Error(), "client 3: fl: TrainLocal: empty shard") {
			t.Fatalf("%s: %v, want client 3's empty-shard failure", s.name, err)
		}
		if wantErr == "" {
			wantErr = err.Error()
		} else if err.Error() != wantErr {
			t.Errorf("%s: error %q, want %q", s.name, err, wantErr)
		}
		drained(s.name+" failed", env, s.budget)
	}
}

// trainersLive counts the goroutines inside a training queue's trainer.
func trainersLive() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "(*trainQueue).trainer(")
		}
		buf = make([]byte, 2*len(buf))
	}
}
