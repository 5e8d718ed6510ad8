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
// 10^6 clients allocates the cohort (8 KB at K=1000) and a K-sized table
// of displaced slots (16 KB), not an 8 MB permutation.
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
// runs selection stream v2's shuffle until it has yielded k available
// ids, padding with -1 once all n are drawn (round 7 has 4 of 40 online).
// The cohorts, the padding and the final stream position are pinned from
// tensor.RNG.SampleV2 as it was introduced: 222 draws, one Intn per id
// drawn (none rejected at n = 40).
func TestSelectClientsChurnPinned(t *testing.T) {
	const n, k, rounds = 40, 6, 8
	churn := NewChurnPlan(ChurnOptions{Availability: 0.3, Jitter: 0.5, StartFrac: 1, EndFrac: 0.5}, 9, n, rounds)
	want := [rounds][]int{
		{31, 24, 25, 35, 7, 26},
		{11, 28, 19, 9, 17, 10},
		{25, 15, 20, 24, 9, 19},
		{23, 7, 0, 17, 10, 27},
		{26, 19, 9, 0, 23, 20},
		{19, 24, 9, 11, 10, 4},
		{0, 8, 4, 20, 9, 17},
		{10, 5, 9, 4, -1, -1},
	}
	rng := tensor.NewRNG(41)
	for r := 0; r < rounds; r++ {
		if got := selectClients(&wireAlgo{}, r, rng, n, k, churn); !reflect.DeepEqual(got, want[r]) {
			t.Fatalf("round %d: selected %v, want %v", r, got, want[r])
		}
	}
	if st := rng.State(); st.Pos != 222 {
		t.Fatalf("selection stream at position %d, want 222", st.Pos)
	}
	if got := rng.Int63(); got != 7331019285459102564 {
		t.Fatalf("next draw after selection = %d, want 7331019285459102564", got)
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
