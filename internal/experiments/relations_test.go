package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"fedcross/internal/baselines"
	"fedcross/internal/core"
	"fedcross/internal/data"
	"fedcross/internal/fl"
	"fedcross/internal/models"
	"fedcross/internal/nn"
)

// relations is the determinism table. A row is a relation every way of
// producing a history must satisfy — bit-equal History and, under fl.Run,
// bit-equal final Global(), unless the row declares a bound — plus a
// guard that the feature it varies actually fired. A column the row
// cannot apply to is declared here with the reason. Every run of every
// cell must hand back all its shard leases and model replicas.
//
// Adding a row: write its check over one column, name every column it
// cannot apply to. Adding a column: give it a case in run. Relations
// hold whatever the selection stream draws, so they stay green across a
// deliberate stream change while testdata/golden.json is regenerated.
var relations = []struct {
	name  string
	check func(t *testing.T, col string)
	na    map[string]string
}{
	{"par", relPar, nil},
	{"source", relSource, nil},
	{"cache", relCache, nil},
	{"inert", relInert, nil},
	{"wire", relWire, nil},
	{"reducer", relReducer, map[string]string{
		"async": "RunAsync reads no reducer: its fold is the staleness-weighted buffer"}},
	{"resume", relResume, nil},
	{"plan", relPlan, map[string]string{
		"clusamp": "a Selector draws its own cohorts from round state, which CohortPlan cannot replay",
		"async":   "RunAsync draws one client per dispatch, not a cohort per round"}},
	{"prox0", relProx0, allBut("fedprox", "μ = 0 reduces FedProx, not this column, to FedAvg")},
	{"eq2", relEq2, allBut("fedcross", "Equation 2 is FedCross's cross-aggregation")},
}

// relColumns are the ways a history is produced: each algorithm under
// fl.Run, and fl.RunAsync, which takes none.
func relColumns() []string { return append(AlgorithmNames(), "async") }

func allBut(col, why string) map[string]string {
	na := map[string]string{}
	for _, c := range relColumns() {
		if c != col {
			na[c] = why
		}
	}
	return na
}

func TestRelations(t *testing.T) {
	cols := relColumns()
	for _, row := range relations {
		for col := range row.na {
			if !slices.Contains(cols, col) {
				t.Fatalf("row %s declares an unknown column %q N/A", row.name, col)
			}
		}
		for _, col := range cols {
			t.Run(row.name+"/"+col, func(t *testing.T) {
				if why, ok := row.na[col]; ok {
					t.Skip("N/A: " + why)
				}
				row.check(t, col)
			})
		}
	}
}

const relClients = 8

// relCfg is every row's base run: four rounds of K = 4 out of relClients.
func relCfg() fl.Config {
	return fl.Config{Rounds: 4, ClientsPerRound: 4, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Momentum: 0.5, EvalEvery: 1, Seed: 7}
}

// relEnv holds mlpVision's federation over relClients at Dir(0.5) as
// source says: "eager", "materialized" (the eager shards behind a
// ClientSource), "lazy" (synthesized through a three-shard LRU) or
// "striped" (a 64-shard LRU over the given stripes).
func relEnv(source string, stripes int) *fl.Env {
	cfg, het := mlpVision(21), data.Heterogeneity{Beta: 0.5}
	var fed *data.Federated
	switch source {
	case "lazy":
		fed = data.BuildVisionLazy(cfg, relClients, het, 22, 3)
	case "striped":
		fed = data.BuildVisionLazyStriped(cfg, relClients, het, 22, 64, stripes)
	default:
		fed = data.BuildVision(cfg, relClients, het, 22)
		if source == "materialized" {
			fed.Source, fed.Clients = data.NewMaterialized(fed.Clients), nil
		}
	}
	return &fl.Env{Fed: fed, Model: mlpModel()}
}

// populationFed is plan's population-shaped federation: 640 samples over
// 50,000 lazy clients, so a K = 100 cohort is a prefix of a 50,000-step
// shuffle and most of it holds no data.
var populationFed = sync.OnceValue(func() *data.Federated {
	cfg := mlpVision(43)
	cfg.TrainPerClass = 160
	return data.BuildVisionLazyStriped(cfg, 50_000, data.Heterogeneity{Beta: 0.5}, 44, 256, 8)
})

// outcome is what a run leaves behind: its history and, under fl.Run,
// the final global model (RunAsync exposes none).
type outcome struct {
	hist   *fl.History
	global nn.ParamVector
}

// run runs column col on env under cfg — through algo when it is
// non-nil — and checks every shard lease and model replica came back.
func run(t *testing.T, col string, algo fl.Algorithm, env *fl.Env, cfg fl.Config) (outcome, error) {
	t.Helper()
	var o outcome
	var err error
	if col == "async" {
		o.hist, err = fl.RunAsync(env, cfg, fl.AsyncOptions{Buffer: 2, InFlight: 4})
	} else {
		if algo == nil {
			if algo, err = NewAlgorithm(col); err != nil {
				t.Fatal(err)
			}
		}
		if o.hist, err = fl.Run(algo, env, cfg); err == nil || errors.Is(err, fl.ErrStopped) {
			o.global = algo.Global()
		}
	}
	if n := env.Fed.OutstandingLeases(); n != 0 {
		t.Errorf("%d shard leases outstanding after the run", n)
	}
	if n := models.Replicas(env.Model).Outstanding(); n != 0 {
		t.Errorf("%d model replicas outstanding after the run", n)
	}
	return o, err
}

// mustRun runs col under cfg on a fresh relEnv(source, 8).
func mustRun(t *testing.T, col, source string, cfg fl.Config) outcome {
	t.Helper()
	o, err := run(t, col, nil, relEnv(source, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// same fails the cell unless every float of got lies within tol of ref's,
// relative to its magnitude, and everything else is equal; tol 0 asks
// for the same bits.
func same(t *testing.T, what string, ref, got outcome, tol float64) {
	t.Helper()
	if d := historyDiff(ref.hist, got.hist, tol); d != "" {
		t.Errorf("%s: %s", what, d)
		return
	}
	if len(ref.global) != len(got.global) {
		t.Errorf("%s: final global model has %d coordinates, want %d", what, len(got.global), len(ref.global))
		return
	}
	for i, w := range ref.global {
		if !closeTo(w, got.global[i], tol) {
			t.Errorf("%s: final global model coordinate %d: got %v, want %v", what, i, got.global[i], w)
			return
		}
	}
}

// differs is a row's guard: a setting the row claims is read must move
// the history.
func differs(t *testing.T, what string, a, b *fl.History) {
	t.Helper()
	if historyDiff(a, b, 0) == "" {
		t.Errorf("%s left the history as it was: the setting is not read", what)
	}
}

// setups are the hostile settings the par and resume rows repeat their
// relation under: a lossy wire; every fault class behind a quorum and
// retries with a sign-flip adversary on a lazy source; lookahead on a
// striped source thinned by crashes and churn; and each other attack
// against the trimmed mean.
var setups = []struct {
	name, source string
	set          func(c *fl.Config)
}{
	{"lossy", "eager", func(c *fl.Config) {
		c.Faults.CrashRate = 0.2
		c.Transport = fl.TransportOptions{Codec: "int8", Network: "lte", DeadlineSec: 2}
	}},
	{"faulted", "lazy", func(c *fl.Config) {
		c.Faults = fl.FaultOptions{CrashRate: 0.2, DropRate: 0.3, TruncateRate: 0.25, CorruptRate: 0.25,
			DuplicateRate: 0.5, StraggleRate: 0.3, StallRate: 0.3}
		c.MinUploads = 2
		c.Transport = fl.TransportOptions{Codec: "fp16", Network: "lte", Retries: 2, RetryBackoffSec: 0.1}
		c.Adversary = fl.AdversaryOptions{Attack: fl.AttackSignFlip, Frac: 0.25}
	}},
	{"lookahead", "striped", lookahead},
	{fl.AttackLabelFlip, "eager", attacked(fl.AttackLabelFlip)},
	{fl.AttackScale, "eager", attacked(fl.AttackScale)},
	{fl.AttackCollude, "eager", attacked(fl.AttackCollude)},
}

func lookahead(c *fl.Config) {
	c.PrefetchRounds, c.Faults.CrashRate = 2, 0.2
	c.Churn = fl.ChurnOptions{Availability: 0.6, Jitter: 0.3, StartFrac: 1, EndFrac: 0.8}
}

func attacked(attack string) func(c *fl.Config) {
	return func(c *fl.Config) {
		c.Adversary = fl.AdversaryOptions{Attack: attack, Frac: 0.25}
		c.Reducer = &fl.TrimmedMeanReducer{Frac: 0.3}
	}
}

// relPar: Parallelism 1 ≡ 8 under every setup.
func relPar(t *testing.T, col string) {
	refs := map[string]*fl.History{}
	for _, s := range setups {
		var ref outcome
		for _, par := range []int{1, 8} {
			cfg := relCfg()
			s.set(&cfg)
			cfg.Parallelism = par
			o := mustRun(t, col, s.source, cfg)
			if par == 1 {
				ref = o
			} else {
				same(t, s.name+": Parallelism 8 against 1", ref, o, 0)
			}
		}
		refs[s.name] = ref.hist
	}

	if refs["lossy"].TotalBytes() == 0 {
		t.Error("the lossy wire moved no bytes")
	}
	h := refs["faulted"]
	for name, n := range map[string]int{"crashes": h.Crashes, "drops": h.FaultDrops, "retries": h.Retries,
		"duplicates": h.Duplicates, "stalls": h.Stalls} {
		// RunAsync's wire never retries: a lost upload is a lost arrival.
		if n == 0 && !(col == "async" && name == "retries") {
			t.Errorf("the faulted run saw no %s", name)
		}
	}
	if f := h.Final(); f.CumCrashes != h.Crashes || f.CumFaultDrops != h.FaultDrops || f.CumRetries != h.Retries ||
		f.CumDuplicates != h.Duplicates || f.CumStalls != h.Stalls {
		t.Errorf("the last round's running counts %+v disagree with the run's totals %+v", f, *h)
	}
	// RunAsync reads no churn.
	if h := refs["lookahead"]; col != "async" && (h.Unavailable == 0 || h.Final().CumUnavailable != h.Unavailable) {
		t.Errorf("churn lost %d selection slots, the last round counts %d", h.Unavailable, h.Final().CumUnavailable)
	}
	differs(t, "scale instead of labelflip", refs[fl.AttackLabelFlip], refs[fl.AttackScale])
	differs(t, "collude instead of scale", refs[fl.AttackScale], refs[fl.AttackCollude])
}

// relSource: eager ≡ materialized ≡ lazy, benign and under a data- and a
// model-poisoning attack.
// Eager federations report an empty shard trainable and the sources do
// not, so the relation holds only where no shard is empty.
func relSource(t *testing.T, col string) {
	fed := relEnv("eager", 0).Fed
	for ci := range fed.NumClients() {
		if fed.Size(ci) == 0 {
			t.Fatalf("precondition: client %d holds no sample", ci)
		}
	}
	var benign *fl.History
	for _, adv := range []fl.AdversaryOptions{{}, {Attack: fl.AttackLabelFlip, Frac: 0.25}, {Attack: fl.AttackSignFlip, Frac: 0.25}} {
		cfg := relCfg()
		cfg.Adversary = adv
		ref := mustRun(t, col, "eager", cfg)
		for _, source := range []string{"materialized", "lazy"} {
			same(t, fmt.Sprintf("%s against eager, attack %q", source, adv.Attack), ref, mustRun(t, col, source, cfg), 0)
		}
		if benign == nil {
			benign = ref.hist
		} else {
			differs(t, adv.Attack, benign, ref.hist)
		}
	}
}

// relCache: stripes {1, 8, 64} × prefetch {0, 1, 2} ≡ stripes 1,
// prefetch 0, under lookahead's crashes and churn, on the planner
// goroutine (Parallelism 8).
func relCache(t *testing.T, col string) {
	var ref outcome
	for _, stripes := range []int{1, 8, 64} {
		for _, prefetch := range []int{0, 1, 2} {
			cfg := relCfg()
			lookahead(&cfg)
			cfg.Parallelism, cfg.PrefetchRounds = 8, prefetch
			env := relEnv("striped", stripes)
			o, err := run(t, col, nil, env, cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, _ := env.Fed.SourceStats()
			if st.Stripes != stripes {
				t.Errorf("the source runs %d stripes, built with %d", st.Stripes, stripes)
			}
			// A Selector's next cohort depends on the round before it, so
			// nothing may plan it ahead.
			if col == "clusamp" && st.PrefetchHits != 0 {
				t.Errorf("prefetch %d warmed %d shards for a Selector", prefetch, st.PrefetchHits)
			}
			if ref.hist == nil {
				ref = o
			} else {
				same(t, fmt.Sprintf("stripes %d, prefetch %d", stripes, prefetch), ref, o, 0)
			}
		}
	}
}

// relInert: fault factors without rates, full availability and an attack
// on no client ≡ none of them.
func relInert(t *testing.T, col string) {
	off := mustRun(t, col, "eager", relCfg())
	cfg := relCfg()
	cfg.Faults = fl.FaultOptions{StraggleFactor: 8, StallSec: 30}
	cfg.Churn = fl.ChurnOptions{Availability: 1, PeriodRounds: 12}
	cfg.Adversary = fl.AdversaryOptions{Attack: fl.AttackSignFlip}
	same(t, "inert settings against none", off, mustRun(t, col, "eager", cfg), 0)
	cfg.Faults.CrashRate, cfg.Churn.Availability, cfg.Adversary.Frac = 0.3, 0.5, 0.25
	differs(t, "arming the inert settings", off.hist, mustRun(t, col, "eager", cfg).hist)
}

// relWire: codec identity over net none ≡ the zero TransportOptions.
func relWire(t *testing.T, col string) {
	off := mustRun(t, col, "eager", relCfg())
	cfg := relCfg()
	cfg.Transport = fl.TransportOptions{Codec: "identity", Network: "none"}
	same(t, "identity/none against the zero wire", off, mustRun(t, col, "eager", cfg), 0)
	if off.hist.TotalBytes() == 0 {
		t.Error("the wire moved no bytes")
	}
}

// relReducer: a nil Reducer ≡ the registry's mean. trimmed:0 is not a
// member: ReducerByName refuses it, and the trimmed mean drops weights.
// SCAFFOLD's is the one bounded cell: without a reducer it steps x by the
// mean upload delta, which is the mean upload rounded differently
// (scaffold.go), so its floats agree to 1e-9 relative, not to the bit.
func relReducer(t *testing.T, col string) {
	withReducer := func(name string) outcome {
		cfg := relCfg()
		r, err := core.ReducerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Reducer = r
		return mustRun(t, col, "eager", cfg)
	}
	tol := 0.0
	if col == "scaffold" {
		tol = 1e-9
	}
	off := mustRun(t, col, "eager", relCfg())
	same(t, "mean against nil", off, withReducer("mean"), tol)
	differs(t, "the median", off.hist, withReducer("median").hist)
}

// relResume: killed after round 1, mid-run and the round before last,
// then resumed ≡ the uninterrupted run, under every setup, at
// Parallelism 1 and 8; each stop's snapshot is the same bytes at both.
func relResume(t *testing.T, col string) {
	dir := t.TempDir()
	for _, s := range setups {
		snaps := map[int][]byte{}
		for _, par := range []int{1, 8} {
			cfg := relCfg()
			s.set(&cfg)
			cfg.Parallelism = par
			full := mustRun(t, col, s.source, cfg)
			for _, stop := range []int{1, cfg.Rounds / 2, cfg.Rounds - 1} {
				what := fmt.Sprintf("%s, Parallelism %d, killed after round %d", s.name, par, stop)
				path := filepath.Join(dir, fmt.Sprintf("%s-par%d-stop%d.ckpt", s.name, par, stop))
				killed := cfg
				killed.Checkpoint = fl.CheckpointOptions{Path: path, StopAfterRound: stop}
				partial, err := run(t, col, nil, relEnv(s.source, 8), killed)
				if !errors.Is(err, fl.ErrStopped) || partial.hist.Final().Round != stop {
					t.Fatalf("%s: %v, want fl.ErrStopped with round %d evaluated last", what, err, stop)
				}
				snap, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if par == 1 {
					snaps[stop] = snap
				} else if !bytes.Equal(snaps[stop], snap) {
					t.Errorf("%s: the snapshot differs from Parallelism 1's", what)
				}
				resumed := cfg
				resumed.Checkpoint = fl.CheckpointOptions{Path: path, Resume: true}
				same(t, what+", resumed", full, mustRun(t, col, s.source, resumed), 0)
			}
		}
	}
}

// cohortRecorder keeps every cohort the engine hands the algorithm.
type cohortRecorder struct {
	fl.Algorithm
	cohorts [][]int
}

// SetTransport hands the wire on: embedding hides the inner method from
// fl.Run's type assertion.
func (a *cohortRecorder) SetTransport(tr *fl.Transport) {
	a.Algorithm.(fl.TransportUser).SetTransport(tr)
}

func (a *cohortRecorder) Round(r int, selected []int) error {
	a.cohorts = append(a.cohorts, slices.Clone(selected))
	return a.Algorithm.Round(r, selected)
}

// relPlan: fl.CohortPlan ≡ the cohorts the engine hands the algorithm,
// at relClients and at population shape.
func relPlan(t *testing.T, col string) {
	for _, c := range []struct {
		k, rounds int
		env       *fl.Env
	}{
		{4, 4, relEnv("eager", 0)},
		{100, 2, &fl.Env{Fed: populationFed(), Model: mlpModel()}},
	} {
		algo, err := NewAlgorithm(col)
		if err != nil {
			t.Fatal(err)
		}
		rec := &cohortRecorder{Algorithm: algo}
		cfg := relCfg()
		cfg.ClientsPerRound, cfg.Rounds = c.k, c.rounds
		if _, err := run(t, col, rec, c.env, cfg); err != nil {
			t.Fatal(err)
		}
		n := c.env.NumClients()
		if len(rec.cohorts) != cfg.Rounds {
			t.Fatalf("n=%d: the engine ran %d rounds, want %d", n, len(rec.cohorts), cfg.Rounds)
		}
		for r, got := range rec.cohorts {
			if want := fl.CohortPlan(r, cfg.Seed, n, c.k); !slices.Equal(got, want) {
				t.Errorf("n=%d round %d: the engine selected %v, CohortPlan %v", n, r, got, want)
			}
		}
	}
}

// relProx0: FedProx at μ = 0 ≡ FedAvg in everything but its name.
func relProx0(t *testing.T, col string) {
	avg := mustRun(t, "fedavg", "eager", relCfg())
	prox, err := run(t, col, &baselines.FedProx{}, relEnv("eager", 0), relCfg())
	if err != nil {
		t.Fatal(err)
	}
	prox.hist.Algorithm = avg.hist.Algorithm
	same(t, "FedProx μ = 0 against FedAvg", avg, prox, 0)
	differs(t, "the paper's μ", avg.hist, mustRun(t, col, "eager", relCfg()).hist)
}

// relEq2: Equation 2 — with in-order partners every middleware model is
// some other's partner exactly once, so cross-aggregation keeps the
// middleware mean for any α. One round at K = N without dropout: the
// global model is the same for α ∈ {0.5, 0.75, 0.99} up to rounding,
// bounded absolutely by K·ε·max|w| (near-zero coordinates can sit many
// ulps apart, so an ulp bound would not hold).
func relEq2(t *testing.T, col string) {
	cfg := relCfg()
	cfg.Rounds, cfg.ClientsPerRound = 1, relClients
	var ref outcome
	var refMid nn.ParamVector
	for _, alpha := range []float64{0.5, 0.75, 0.99} {
		opts := core.DefaultOptions()
		opts.Alpha, opts.Strategy = alpha, core.InOrder
		fc := core.MustNew(opts)
		o, err := run(t, col, fc, relEnv("eager", 0), cfg)
		if err != nil {
			t.Fatal(err)
		}
		mid := fc.Middleware()[0]
		if ref.global == nil {
			ref, refMid = o, mid
			continue
		}
		bound, moved := 0.0, 0.0
		for i, w := range ref.global {
			bound = max(bound, math.Abs(w))
			moved = max(moved, math.Abs(o.global[i]-w))
		}
		bound *= float64(cfg.ClientsPerRound) * 0x1p-52
		t.Logf("α = %v: max |Δw| = %g from α = 0.5's, bound %g", alpha, moved, bound)
		if moved > bound {
			t.Errorf("α = %v: the global model moved %g from α = 0.5's, bound %g", alpha, moved, bound)
		}
		if slices.Equal(mid, refMid) {
			t.Errorf("α = %v left middleware model 0 as α = 0.5 did: cross-aggregation never ran", alpha)
		}
	}
}
