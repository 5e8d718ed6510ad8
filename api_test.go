package fedcross

import (
	"testing"
)

// The root package is a façade; these tests pin its surface — every
// public constructor works and the aliases compose into a full run.

func TestPublicAPIEndToEnd(t *testing.T) {
	profile := TinyProfile()
	profile.Rounds = 4
	profile.NumClients = 8
	profile.ClientsPerRound = 3

	env, err := profile.BuildEnv("vision10", "mlp", Heterogeneity{Beta: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	algo, err := NewFedCross(DefaultFedCrossOptions())
	if err != nil {
		t.Fatal(err)
	}
	hist, err := Run(algo, env, profile.Config(1))
	if err != nil {
		t.Fatal(err)
	}
	if hist.Final().Round != 4 {
		t.Fatalf("final round %d", hist.Final().Round)
	}
	if hist.Final().TestAcc <= 0 {
		t.Fatal("no accuracy recorded")
	}
}

func TestPublicBaselineConstructors(t *testing.T) {
	if a := NewFedAvg(); a.Name() != "fedavg" {
		t.Fatal("fedavg constructor")
	}
	if a, err := NewFedProx(0.01); err != nil || a.Name() != "fedprox" {
		t.Fatalf("fedprox constructor: %v", err)
	}
	if a := NewSCAFFOLD(); a.Name() != "scaffold" {
		t.Fatal("scaffold constructor")
	}
	if a := NewFedGen(); a.Name() != "fedgen" {
		t.Fatal("fedgen constructor")
	}
	if a := NewCluSamp(); a.Name() != "clusamp" {
		t.Fatal("clusamp constructor")
	}
	for _, name := range AlgorithmNames() {
		if _, err := NewAlgorithm(name); err != nil {
			t.Fatalf("NewAlgorithm(%q): %v", name, err)
		}
	}
}

func TestPublicPrimitives(t *testing.T) {
	v := ParamVector{1, 2}
	w := ParamVector{3, 4}
	if got := CrossAggr(v, w, 0.5); got[0] != 2 || got[1] != 3 {
		t.Fatalf("CrossAggr = %v", got)
	}
	if got := GlobalModelGen([]ParamVector{v, w}); got[0] != 2 {
		t.Fatalf("GlobalModelGen = %v", got)
	}
	if got := CosineSimilarity(v, v); got < 0.999999 {
		t.Fatalf("CosineSimilarity(v,v) = %v", got)
	}
}

func TestPublicStrategyAndAccelConstants(t *testing.T) {
	opts := DefaultFedCrossOptions()
	opts.Strategy = InOrder
	opts.Accel = AccelBoth
	opts.AccelRounds = 2
	if _, err := NewFedCross(opts); err != nil {
		t.Fatal(err)
	}
	opts.Strategy = HighestSimilarity
	if _, err := NewFedCross(opts); err != nil {
		t.Fatal(err)
	}
	opts.Strategy = LowestSimilarity
	opts.Accel = AccelNone
	if _, err := NewFedCross(opts); err != nil {
		t.Fatal(err)
	}
}

func TestPublicLandscape(t *testing.T) {
	profile := TinyProfile()
	profile.NumClients = 4
	env, err := profile.BuildEnv("vision10", "mlp", Heterogeneity{IID: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	algo, err := NewAlgorithm("fedavg")
	if err != nil {
		t.Fatal(err)
	}
	cfg := profile.Config(1)
	cfg.Rounds = 2
	if _, err := Run(algo, env, cfg); err != nil {
		t.Fatal(err)
	}
	opts := LandscapeOptions{Resolution: 3, Radius: 0.2, Seed: 1, MaxSamples: 16}
	grid, err := ScanLandscape(env.Model, algo.Global(), env.Fed.Test, opts)
	if err != nil {
		t.Fatal(err)
	}
	if grid.CenterLoss() <= 0 {
		t.Fatal("centre loss should be positive on an untrained-ish model")
	}
	if _, err := Sharpness(env.Model, algo.Global(), env.Fed.Test, 0.2, 1, 1); err != nil {
		t.Fatal(err)
	}
}

func TestPublicDatasetNames(t *testing.T) {
	if len(DatasetNames()) != 5 {
		t.Fatalf("datasets = %v", DatasetNames())
	}
	if DefaultConfig().Validate() != nil {
		t.Fatal("default config invalid")
	}
}
