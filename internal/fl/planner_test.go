package fl_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fedcross/internal/baselines"
	"fedcross/internal/core"
	"fedcross/internal/data"
	"fedcross/internal/fl"
	"fedcross/internal/models"
)

// The cohort planner's lookahead, tested from outside the package
// against the real algorithms: FedAvg and FedCross plan ahead, CluSamp
// is a Selector and never does.

// probeSource is a lazy source whose Prefetch counts its calls — and,
// once the test marks the run returned, any that came after.
type probeSource struct {
	*data.Lazy
	calls, late atomic.Int32
	returned    atomic.Bool
}

func (p *probeSource) Prefetch(ids []int) {
	if p.returned.Load() {
		p.late.Add(1)
	}
	p.calls.Add(1)
	p.Lazy.Prefetch(ids)
}

// plannerFed is a population-shaped federation: 50,000 lazy clients over
// 640 samples, so a K=100 cohort leases a handful of shards and a round's
// selection is a 50,000-step shuffle.
func plannerFed() *data.Federated {
	cfg := data.VisionConfig{
		Classes: 4, Features: 12,
		TrainPerClass: 160, TestPerClass: 15,
		ModesPerClass: 2, Sep: 1.2, Noise: 0.3, Seed: 43,
	}
	return data.BuildVisionLazyStriped(cfg, 50_000, data.Heterogeneity{Beta: 0.5}, 44, 256, 8)
}

// probeEnv puts a fresh probe in front of fed's lazy source.
func probeEnv(fed *data.Federated) (*fl.Env, *probeSource) {
	probe := &probeSource{Lazy: fed.Source.(*data.Lazy)}
	view := *fed
	view.Source = probe
	return &fl.Env{Fed: &view, Model: models.MLP(12, 16, 4)}, probe
}

func plannerAlgos() map[string]func() fl.Algorithm {
	return map[string]func() fl.Algorithm{
		"fedavg":   func() fl.Algorithm { return baselines.NewFedAvg() },
		"fedcross": func() fl.Algorithm { return core.MustNew(core.DefaultOptions()) },
		"clusamp":  func() fl.Algorithm { return baselines.NewCluSamp() },
	}
}

func plannerConfig(prefetch, par int, churn bool) fl.Config {
	cfg := fl.Config{Rounds: 5, ClientsPerRound: 100, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Momentum: 0.5, EvalEvery: 2, Seed: 47, Faults: fl.FaultOptions{CrashRate: 0.1},
		PrefetchRounds: prefetch, Parallelism: par}
	if churn {
		cfg.Churn = fl.ChurnOptions{Availability: 0.6, Jitter: 0.3, StartFrac: 1, EndFrac: 0.8}
	}
	return cfg
}

// TestRunPlannerAheadMatchesInline: over PrefetchRounds {0, 1, 2} ×
// Parallelism {1, 2, 8} × {FedAvg, FedCross, CluSamp} × churn off/on,
// the lookahead runs exactly where it should — lookahead on, no
// Selector — and not at all for a Selector. That its history, snapshot
// and resume match the runs without it is the relations table's cache
// and resume rows (internal/experiments).
func TestRunPlannerAheadMatchesInline(t *testing.T) {
	fed := plannerFed()
	for name, mk := range plannerAlgos() {
		for _, churn := range []bool{false, true} {
			for _, prefetch := range []int{0, 1, 2} {
				for _, par := range []int{1, 2, 8} {
					tag := fmt.Sprintf("%s/churn=%v/prefetch%d/par%d", name, churn, prefetch, par)
					env, probe := probeEnv(fed)
					if _, err := fl.Run(mk(), env, plannerConfig(prefetch, par, churn)); err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					if n := env.Fed.OutstandingLeases(); n != 0 {
						t.Fatalf("%s: %d leases outstanding", tag, n)
					}
					planned := prefetch > 0 && name != "clusamp"
					if got, want := probe.calls.Load() > 0, planned; got != want {
						t.Fatalf("%s: lookahead issued = %v, want %v", tag, got, want)
					}
				}
			}
		}
	}
}

// TestRunPlannerWithoutBudgetTokenPlansInline: under a shared budget with
// no token free, the lookahead still runs, on the round loop's goroutine
// without a token — no worker beyond the budget's cap — and the history
// is the unbudgeted one.
func TestRunPlannerWithoutBudgetTokenPlansInline(t *testing.T) {
	fed := plannerFed()
	cfg := plannerConfig(1, 8, false)
	env, _ := probeEnv(fed)
	want, err := fl.Run(baselines.NewFedAvg(), env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	budget := fl.NewWorkerBudget(1)
	budget.Acquire() // the run's base token, as the experiment scheduler takes it
	defer budget.Release()
	cfg.Budget = budget
	env, probe := probeEnv(fed)
	got, err := fl.Run(baselines.NewFedAvg(), env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if probe.calls.Load() == 0 {
		t.Fatal("zero free tokens: the lookahead never ran")
	}
	if budget.TryAcquire(1) != 0 {
		t.Fatal("the run left a token in a budget it found empty")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("budgeted history differs:\n%+v\nvs\n%+v", got, want)
	}
}

// failingAlgo fails its round failAt after the round's lookahead started.
type failingAlgo struct {
	fl.Algorithm
	failAt int
}

var errRoundFailed = errors.New("round failed on purpose")

func (a *failingAlgo) Round(r int, selected []int) error {
	if r == a.failAt {
		return errRoundFailed
	}
	return a.Algorithm.Round(r, selected)
}

// TestRunPlannerJoinsOnError: an algorithm error in round 2 returns that
// error with every lease back — nothing hands the pool a cohort after Run
// returns, and once the pool drains the goroutine count is back to where
// it started.
func TestRunPlannerJoinsOnError(t *testing.T) {
	fed := plannerFed()
	lazy := fed.Source.(*data.Lazy)
	base := runtime.NumGoroutine()
	for _, prefetch := range []int{1, 2} {
		env, probe := probeEnv(fed)
		_, err := fl.Run(&failingAlgo{Algorithm: baselines.NewFedAvg(), failAt: 2}, env, plannerConfig(prefetch, 8, false))
		probe.returned.Store(true)
		if !errors.Is(err, errRoundFailed) {
			t.Fatalf("prefetch%d: Run returned %v, want the round's error", prefetch, err)
		}
		if probe.calls.Load() == 0 {
			t.Fatalf("prefetch%d: the lookahead never ran", prefetch)
		}
		if n := lazy.Outstanding(); n != 0 {
			t.Fatalf("prefetch%d: %d leases outstanding after the error", prefetch, n)
		}
		if n := probe.late.Load(); n != 0 {
			t.Fatalf("prefetch%d: %d cohorts handed to the pool after Run returned", prefetch, n)
		}
		lazy.WaitPrefetch()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("prefetch%d: %d goroutines after the failed run, %d before", prefetch, n, base)
		}
	}
}
