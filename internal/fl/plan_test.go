package fl

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"fedcross/internal/data"
	"fedcross/internal/models"
	"fedcross/internal/tensor"
)

// recordAlgo trains like wireAlgo but keeps a copy of every round's
// selected cohort, letting tests compare the engine's actual selection
// against the pure CohortPlan replay. Clients without data sit the round
// out (as in FedAvg), so it also runs over populations far larger than
// the dataset.
type recordAlgo struct {
	wireAlgo
	rounds [][]int
}

func (a *recordAlgo) Round(r int, selected []int) error {
	a.rounds = append(a.rounds, append([]int(nil), selected...))
	trainable := make([]int, len(selected))
	for i, ci := range selected {
		trainable[i] = -1
		if ci >= 0 && a.env.Fed.Trainable(ci) {
			trainable[i] = ci
		}
	}
	return a.wireAlgo.Round(r, trainable)
}

// selectorAlgo is wireAlgo plus a Selector whose choice rotates with the
// round and consumes one RNG draw per call — if the planner ever drew a
// Selector cohort ahead of its round, both the rotation and the stream
// position would change and histories would diverge.
type selectorAlgo struct {
	wireAlgo
}

func (a *selectorAlgo) SelectClients(r int, rng *tensor.RNG, n, k int) []int {
	perm := rng.Perm(n)
	out := make([]int, k)
	for i := range out {
		out[i] = perm[(i+r)%n]
	}
	return out
}

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

// TestCohortPlanMatchesEngine: the pure replay returns exactly the cohort
// the engine selects, round by round — the contract that lets prefetch
// know the future without touching it.
func TestCohortPlanMatchesEngine(t *testing.T) {
	cfg := Config{Rounds: 5, ClientsPerRound: 3, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Momentum: 0.5, EvalEvery: 5, Seed: 17}
	// The second case is population-shaped (k ≪ n), where the engine's
	// PermPrefix keeps a 100-id prefix of a 50,000-step shuffle.
	for _, c := range []struct{ n, k int }{{8, 3}, {50000, 100}} {
		cfg.ClientsPerRound = c.k
		algo := &recordAlgo{}
		env := sourceEnv(33, c.n, data.Heterogeneity{IID: true}, "lazy")
		if _, err := Run(algo, env, cfg); err != nil {
			t.Fatal(err)
		}
		n := env.NumClients()
		if len(algo.rounds) != cfg.Rounds {
			t.Fatalf("n=%d: recorded %d rounds, want %d", c.n, len(algo.rounds), cfg.Rounds)
		}
		for r, got := range algo.rounds {
			want := CohortPlan(r, cfg.Seed, n, cfg.ClientsPerRound)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d round %d: engine selected %v, CohortPlan %v", c.n, r, got, want)
			}
		}
	}
	// k > n clamps exactly like the engine; nonsense inputs return nil.
	if got := CohortPlan(0, cfg.Seed, 4, 9); len(got) != 4 {
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

// TestRunIdenticalAcrossStripesAndPrefetch is the acceptance gate of the
// striped-cache PR: fl.Run histories are byte-identical across stripe
// counts {1, 8, 64} × prefetch lookahead {0, 1, 2}, with every lease
// drained afterwards. Dropout is on, so the test also covers prefetching
// pre-dropout plans whose clients later drop.
func TestRunIdenticalAcrossStripesAndPrefetch(t *testing.T) {
	base := Config{Rounds: 4, ClientsPerRound: 4, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Momentum: 0.5, EvalEvery: 2, Seed: 19, DropoutRate: 0.2}
	var ref *History
	for _, stripes := range []int{1, 8, 64} {
		for _, pre := range []int{0, 1, 2} {
			t.Run(fmt.Sprintf("stripes%d/prefetch%d", stripes, pre), func(t *testing.T) {
				cfg := base
				cfg.PrefetchRounds = pre
				env := lazyStripedEnv(35, 12, data.Heterogeneity{Beta: 0.5}, 64, stripes)
				h, err := Run(&wireAlgo{}, env, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if n := env.Fed.OutstandingLeases(); n != 0 {
					t.Fatalf("%d leases outstanding after run", n)
				}
				if stats, ok := env.Fed.SourceStats(); ok && stats.Stripes != stripes {
					t.Fatalf("source runs %d stripes, want the %d it was built with", stats.Stripes, stripes)
				}
				if ref == nil {
					ref = h
					return
				}
				if !reflect.DeepEqual(ref.Metrics, h.Metrics) {
					t.Fatalf("history diverges at stripes=%d prefetch=%d:\n%v\nvs\n%v",
						stripes, pre, ref.Metrics, h.Metrics)
				}
			})
		}
	}
}

// TestRunAsyncIdenticalAcrossStripesAndPrefetch repeats the gate for the
// buffered-async engine, whose prefetch fires per dispatched client
// rather than per planned round.
func TestRunAsyncIdenticalAcrossStripesAndPrefetch(t *testing.T) {
	base := Config{Rounds: 4, ClientsPerRound: 3, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Momentum: 0.5, EvalEvery: 2, Seed: 23}
	opts := AsyncOptions{Buffer: 2}
	var ref *History
	for _, stripes := range []int{1, 8, 64} {
		for _, pre := range []int{0, 1} {
			cfg := base
			cfg.PrefetchRounds = pre
			env := lazyStripedEnv(37, 10, data.Heterogeneity{Beta: 0.5}, 64, stripes)
			h, err := RunAsync(env, cfg, opts)
			if err != nil {
				t.Fatalf("stripes=%d prefetch=%d: %v", stripes, pre, err)
			}
			if n := env.Fed.OutstandingLeases(); n != 0 {
				t.Fatalf("stripes=%d prefetch=%d: %d leases outstanding", stripes, pre, n)
			}
			if ref == nil {
				ref = h
				continue
			}
			if !reflect.DeepEqual(ref.Metrics, h.Metrics) {
				t.Fatalf("async history diverges at stripes=%d prefetch=%d:\n%v\nvs\n%v",
					stripes, pre, ref.Metrics, h.Metrics)
			}
		}
	}
}

// TestSelectorDisablesLookahead: for algorithms that choose their own
// clients, the planner must refuse to plan ahead — histories with
// prefetch on and off are identical, and the source records zero
// prefetch-warmed hits because no lookahead was ever issued.
func TestSelectorDisablesLookahead(t *testing.T) {
	base := Config{Rounds: 4, ClientsPerRound: 3, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Momentum: 0.5, EvalEvery: 2, Seed: 29}
	var ref *History
	for _, pre := range []int{0, 2} {
		cfg := base
		cfg.PrefetchRounds = pre
		env := lazyStripedEnv(39, 10, data.Heterogeneity{IID: true}, 64, 8)
		h, err := Run(&selectorAlgo{}, env, cfg)
		if err != nil {
			t.Fatalf("prefetch=%d: %v", pre, err)
		}
		if stats, ok := env.Fed.SourceStats(); !ok {
			t.Fatal("lazy source lost its stats seam")
		} else if stats.PrefetchHits != 0 {
			t.Fatalf("prefetch=%d: %d prefetch hits with a Selector algorithm, want 0",
				pre, stats.PrefetchHits)
		}
		if ref == nil {
			ref = h
			continue
		}
		if !reflect.DeepEqual(ref.Metrics, h.Metrics) {
			t.Fatalf("Selector history changed with prefetch on:\n%v\nvs\n%v", ref.Metrics, h.Metrics)
		}
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
