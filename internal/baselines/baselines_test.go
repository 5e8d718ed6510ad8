package baselines

import (
	"testing"

	"fedcross/internal/data"
	"fedcross/internal/fl"
	"fedcross/internal/models"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

func testEnv(seed int64, clients int, het data.Heterogeneity) *fl.Env {
	cfg := data.VisionConfig{
		Classes: 4, Features: 12,
		TrainPerClass: 50, TestPerClass: 20,
		ModesPerClass: 2, Sep: 1.2, Noise: 0.35, Seed: seed,
	}
	fed := data.BuildVision(cfg, clients, het, seed+1)
	return &fl.Env{Fed: fed, Model: models.MLP(12, 16, 4)}
}

func testCfg(rounds int) fl.Config {
	return fl.Config{
		Rounds: rounds, ClientsPerRound: 4, LocalEpochs: 2, BatchSize: 16,
		LR: 0.05, Momentum: 0.5, EvalEvery: 0, Seed: 3,
	}
}

func allBaselines(t *testing.T) []fl.Algorithm {
	t.Helper()
	prox, err := NewFedProx(0.01)
	if err != nil {
		t.Fatal(err)
	}
	return []fl.Algorithm{NewFedAvg(), prox, NewSCAFFOLD(), NewFedGen(), NewCluSamp()}
}

func TestAllBaselinesEndToEnd(t *testing.T) {
	for _, algo := range allBaselines(t) {
		algo := algo
		t.Run(algo.Name(), func(t *testing.T) {
			env := testEnv(1, 8, data.Heterogeneity{Beta: 0.5})
			hist, err := fl.Run(algo, env, testCfg(8))
			if err != nil {
				t.Fatal(err)
			}
			if hist.Final().TestAcc < 0.35 {
				t.Fatalf("%s final accuracy %v, expected clearly above 25%% chance", algo.Name(), hist.Final().TestAcc)
			}
		})
	}
}

func TestBaselineCategoriesMatchTableI(t *testing.T) {
	want := map[string]string{
		"fedavg":   "Classic",
		"fedprox":  "Global Control Variable",
		"scaffold": "Global Control Variable",
		"fedgen":   "Knowledge Distillation",
		"clusamp":  "Client Grouping",
	}
	for _, algo := range allBaselines(t) {
		if got := algo.Category(); got != want[algo.Name()] {
			t.Fatalf("%s category %q, want %q", algo.Name(), got, want[algo.Name()])
		}
	}
}

func TestCommProfilesMatchTableI(t *testing.T) {
	classes := map[string]string{
		"fedavg":   "Low",
		"fedprox":  "Low",
		"scaffold": "High",
		"fedgen":   "Medium",
		"clusamp":  "Low",
	}
	for _, algo := range allBaselines(t) {
		got := algo.RoundComm(10).OverheadClass()
		if got != classes[algo.Name()] {
			t.Fatalf("%s overhead %q, want %q", algo.Name(), got, classes[algo.Name()])
		}
	}
}

func TestFedAvgAggregationWeighted(t *testing.T) {
	// With one dominant client, the global model should land near that
	// client's upload. Construct directly via the aggregation helper.
	uploads := []nn.ParamVector{{0, 0}, {10, 10}}
	got := nn.WeightedMeanVectors(uploads, []float64{1, 9})
	if got[0] != 9 {
		t.Fatalf("weighted mean = %v", got)
	}
}

func TestFedProxValidation(t *testing.T) {
	if _, err := NewFedProx(0); err == nil {
		t.Fatal("mu=0 must be rejected")
	}
	if _, err := NewFedProx(-1); err == nil {
		t.Fatal("negative mu must be rejected")
	}
}

func TestSCAFFOLDControlVariatesEvolve(t *testing.T) {
	env := testEnv(2, 6, data.Heterogeneity{Beta: 0.5})
	algo := NewSCAFFOLD()
	cfg := testCfg(3)
	if _, err := fl.Run(algo, env, cfg); err != nil {
		t.Fatal(err)
	}
	if algo.c.Norm() == 0 {
		t.Fatal("server control variate should be nonzero after training")
	}
	participated := 0
	for _, ci := range algo.ci {
		if ci != nil {
			participated++
		}
	}
	if participated == 0 {
		t.Fatal("no client variates were initialised")
	}
}

func TestSCAFFOLDDriftCorrectionChangesTrajectory(t *testing.T) {
	// SCAFFOLD and FedAvg start identically; after several rounds on
	// non-IID data their trajectories must differ (the variates bite).
	env := testEnv(3, 6, data.Heterogeneity{Beta: 0.1})
	cfg := testCfg(4)
	hAvg, err := fl.Run(NewFedAvg(), env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hSca, err := fl.Run(NewSCAFFOLD(), env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hAvg.Final().TestAcc == hSca.Final().TestAcc && hAvg.Final().TestLoss == hSca.Final().TestLoss {
		t.Fatal("SCAFFOLD should diverge from FedAvg on non-IID data")
	}
}

func TestFedGenGeneratorLearns(t *testing.T) {
	env := testEnv(4, 6, data.Heterogeneity{Beta: 0.5})
	gen := NewFedGen()
	cfg := testCfg(3)
	if _, err := fl.Run(gen, env, cfg); err != nil {
		t.Fatal(err)
	}
	// After rounds, generated samples should be classified as their
	// conditioning label by the global model more often than chance.
	x, y := gen.generate(200)
	net := env.Model.New(tensor.NewRNG(0))
	if err := nn.LoadParams(net.Params(), gen.Global()); err != nil {
		t.Fatal(err)
	}
	logits := net.Forward(x)
	acc := nn.Accuracy(logits, y)
	if acc < 0.3 {
		t.Fatalf("generator-label agreement %v, want > chance 0.25", acc)
	}
}

// uploadRecorder is the mean rule, keeping a copy of the last uploads it
// folded: FedGen distils its generator against exactly those.
type uploadRecorder struct{ last []nn.ParamVector }

func (r *uploadRecorder) Name() string { return "mean" }

func (r *uploadRecorder) Reduce(uploads []nn.ParamVector, weights []float64) nn.ParamVector {
	r.last = r.last[:0]
	for _, u := range uploads {
		r.last = append(r.last, u.Clone())
	}
	return fl.MeanReducer{}.Reduce(uploads, weights)
}

// TestFedGenGeneratorFitsEnsemble: the server's generator meets its
// distillation objective — the last round's ensemble of uploaded client
// models (summed logits) classifies its samples as their conditioning
// labels far above chance (0.25) after four rounds.
func TestFedGenGeneratorFitsEnsemble(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		env := testEnv(seed, 8, data.Heterogeneity{Beta: 0.5})
		rec := &uploadRecorder{}
		cfg := testCfg(4)
		cfg.Reducer = rec
		gen := NewFedGen()
		if _, err := fl.Run(gen, env, cfg); err != nil {
			t.Fatal(err)
		}
		if len(rec.last) == 0 {
			t.Fatal("the last round folded no upload")
		}
		// Sample the trained server generator, not the twin the last
		// round downloaded.
		if err := nn.LoadParams(gen.clientGen.Params(), nn.FlattenParams(gen.gen.Params())); err != nil {
			t.Fatal(err)
		}
		x, y := gen.generate(2000)
		net := env.Model.New(tensor.NewRNG(0))
		var sum *tensor.Tensor
		for _, u := range rec.last {
			if err := nn.LoadParams(net.Params(), u); err != nil {
				t.Fatal(err)
			}
			logits := net.Forward(x)
			if sum == nil {
				sum = tensor.Zeros(logits.Shape...)
			}
			tensor.AddInPlace(sum, logits)
		}
		if acc := nn.Accuracy(sum, y); acc < 0.8 {
			t.Errorf("seed %d: the ensemble labels %.3f of the generated samples as conditioned, want >= 0.8", seed, acc)
		} else {
			t.Logf("seed %d: ensemble agreement %.3f", seed, acc)
		}
	}
}

// TestFedGenOnTokenDataset guards the seed-era bug where the generator's
// continuous outputs reached an Embedding layer as token ids and panicked
// ("token id -1 out of vocab"): on token datasets the augmentation and
// distillation paths must discretise generated features first.
func TestFedGenOnTokenDataset(t *testing.T) {
	fed := data.GenerateShakespeare(data.ShakespeareConfig{
		Vocab: 12, SeqLen: 5, Clients: 6, SamplesPerClient: 12,
		TestSamples: 30, Mix: 0.6, Seed: 2,
	})
	env := &fl.Env{Fed: fed, Model: models.CharLSTM(12, 5, 4, 6)}
	gen := NewFedGen()
	if _, err := fl.Run(gen, env, testCfg(2)); err != nil {
		t.Fatal(err)
	}
	// Every augmented shard must contain only valid token ids.
	aug := gen.augmented(fed.Clients[0])
	for i, v := range aug.X.Data {
		if v != float64(int(v)) || v < 0 || int(v) >= fed.Clients[0].TokenVocab {
			t.Fatalf("augmented feature %d is not a valid token id: %v", i, v)
		}
	}
}

func TestCluSampSelectionProperties(t *testing.T) {
	env := testEnv(5, 10, data.Heterogeneity{Beta: 0.5})
	algo := NewCluSamp()
	cfg := testCfg(1)
	rng := tensor.NewRNG(7)
	if err := algo.Init(env, cfg, rng); err != nil {
		t.Fatal(err)
	}
	// Cold start: all clients cold, selection must be k distinct clients.
	sel := algo.SelectClients(0, rng, 10, 4)
	if len(sel) != 4 {
		t.Fatalf("selected %d, want 4", len(sel))
	}
	seen := map[int]bool{}
	for _, c := range sel {
		if c < 0 || c >= 10 || seen[c] {
			t.Fatalf("bad selection %v", sel)
		}
		seen[c] = true
	}
	// Warm up all clients, then clustered selection must still return k
	// valid indices.
	if err := algo.Round(0, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	sel2 := algo.SelectClients(1, rng, 10, 4)
	if len(sel2) != 4 {
		t.Fatalf("warm selection %v", sel2)
	}
	for _, c := range sel2 {
		if c < 0 || c >= 10 {
			t.Fatalf("warm selection out of range: %v", sel2)
		}
	}
}

func TestBaselinesTolerateFullDropout(t *testing.T) {
	// A round where every selected client drops must not error and must
	// leave the global model unchanged.
	for _, algo := range allBaselines(t) {
		env := testEnv(6, 4, data.Heterogeneity{IID: true})
		cfg := testCfg(1)
		rng := tensor.NewRNG(1)
		if err := algo.Init(env, cfg, rng); err != nil {
			t.Fatalf("%s init: %v", algo.Name(), err)
		}
		before := algo.Global().Clone()
		if err := algo.Round(0, []int{-1, -1, -1, -1}); err != nil {
			t.Fatalf("%s full-dropout round: %v", algo.Name(), err)
		}
		after := algo.Global()
		if before.DistanceSq(after) != 0 {
			t.Fatalf("%s changed global model with zero uploads", algo.Name())
		}
	}
}
