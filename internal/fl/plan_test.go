package fl

import (
	"reflect"
	"runtime"
	"testing"

	"fedcross/internal/data"
	"fedcross/internal/models"
	"fedcross/internal/tensor"
)

// lazyStripedEnv builds the standard test environment over a lazy source
// with an explicit cache geometry, large enough that stripe counts up to
// 64 are honored rather than clamped away.
func lazyStripedEnv(seed int64, clients int, het data.Heterogeneity, capacity, stripes int) *Env {
	cfg := data.VisionConfig{
		Classes: 4, Features: 12,
		TrainPerClass: 40, TestPerClass: 15,
		ModesPerClass: 2, Sep: 1.2, Noise: 0.3, Seed: seed,
	}
	fed := data.BuildVisionLazyStriped(cfg, clients, het, seed+1, capacity, stripes)
	return &Env{Fed: fed, Model: models.MLP(12, 16, 4)}
}

// TestCohortPlanMatchesEngine: k > n clamps exactly like the engine, and
// nonsense inputs return nil. That the replay is the cohort the engine
// selects is the relations table's plan row (internal/experiments).
func TestCohortPlanMatchesEngine(t *testing.T) {
	if got := CohortPlan(0, 17, 4, 9); len(got) != 4 {
		t.Fatalf("CohortPlan k>n returned %d ids, want clamp to 4", len(got))
	}
	if CohortPlan(-1, 1, 4, 2) != nil || CohortPlan(0, 1, 0, 2) != nil {
		t.Fatal("CohortPlan accepted nonsense inputs")
	}
}

// TestSelectClientsAllocatesCohortNotPopulation: uniform selection over
// 10^6 clients keeps a K-sized prefix of the shuffle, so a round's
// selection allocates the cohort (8 KB at K=1000), not an 8 MB
// permutation.
func TestSelectClientsAllocatesCohortNotPopulation(t *testing.T) {
	const n, k, runs = 1000000, 1000, 3
	rng := tensor.NewRNG(5)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		if got := selectClients(&wireAlgo{}, r, rng, n, k, nil); len(got) != k {
			t.Fatalf("selected %d ids, want %d", len(got), k)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 64<<10 {
		t.Fatalf("selectClients(n=%d, k=%d) allocates %d B per call, want <= 64 KiB", n, k, got)
	}
}

// TestSelectClientsChurnPinned: under an active churn plan selection
// asks PermPrefix for the whole permutation and keeps the first k
// available ids. The cohorts, the -1 padding of the sparse last round
// and the final stream position are pinned from the Perm(n)-based
// selection of the commit before PermPrefix existed.
func TestSelectClientsChurnPinned(t *testing.T) {
	const n, k, rounds = 40, 6, 8
	churn := NewChurnPlan(ChurnOptions{Availability: 0.3, Jitter: 0.5, StartFrac: 1, EndFrac: 0.5}, 9, n, rounds)
	want := [rounds][]int{
		{26, 30, 25, 32, 4, 0},
		{31, 25, 30, 28, 17, 19},
		{21, 18, 19, 9, 27, 17},
		{9, 0, 23, 10, 2, 7},
		{23, 26, 2, 0, 20, 9},
		{11, 0, 19, 24, 20, 10},
		{17, 20, 4, 9, 8, 0},
		{4, 9, 5, 10, -1, -1},
	}
	rng := tensor.NewRNG(41)
	for r := 0; r < rounds; r++ {
		if got := selectClients(&wireAlgo{}, r, rng, n, k, churn); !reflect.DeepEqual(got, want[r]) {
			t.Fatalf("round %d: selected %v, want %v", r, got, want[r])
		}
	}
	if st := rng.State(); st.Pos != rounds*n {
		t.Fatalf("selection stream at position %d, want %d (one Perm(%d) per round)", st.Pos, rounds*n, n)
	}
	if got := rng.Int63(); got != 3260741597807166730 {
		t.Fatalf("next draw after selection = %d, want the parent's 3260741597807166730", got)
	}
}

// waitPrefetchAlgo trains like wireAlgo but rendezvouses with the lazy
// source's prefetch pool at the top of every round. Real runs never wait
// — warming is best-effort overlap — but the test must, because on a
// small box the foreground lease can win the synthesis race and the
// prefetch-hit counter would be a coin flip.
type waitPrefetchAlgo struct {
	wireAlgo
	src interface{ WaitPrefetch() }
}

func (a *waitPrefetchAlgo) Round(r int, selected []int) error {
	a.src.WaitPrefetch()
	return a.wireAlgo.Round(r, selected)
}

// TestPrefetchActuallyWarms: with lookahead on, later rounds lease out of
// the warmed cache — the source must record prefetch hits, or the
// overlap machinery silently did nothing.
func TestPrefetchActuallyWarms(t *testing.T) {
	cfg := Config{Rounds: 5, ClientsPerRound: 4, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Momentum: 0.5, EvalEvery: 5, Seed: 31, PrefetchRounds: 2}
	env := lazyStripedEnv(41, 12, data.Heterogeneity{IID: true}, 64, 8)
	algo := &waitPrefetchAlgo{src: env.Fed.Source.(*data.Lazy)}
	if _, err := Run(algo, env, cfg); err != nil {
		t.Fatal(err)
	}
	stats, ok := env.Fed.SourceStats()
	if !ok {
		t.Fatal("lazy source lost its stats seam")
	}
	if stats.PrefetchHits == 0 {
		t.Fatalf("no prefetch hits over %d rounds of lookahead: %+v", cfg.Rounds, stats)
	}
	if stats.Outstanding != 0 {
		t.Fatalf("outstanding %d after run", stats.Outstanding)
	}
}
