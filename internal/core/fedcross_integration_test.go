package core

import (
	"testing"

	"fedcross/internal/data"
	"fedcross/internal/fl"
	"fedcross/internal/models"
)

func integrationEnv(seed int64, clients int, het data.Heterogeneity) *fl.Env {
	cfg := data.VisionConfig{
		Classes: 4, Features: 12,
		TrainPerClass: 50, TestPerClass: 20,
		ModesPerClass: 2, Sep: 1.2, Noise: 0.35, Seed: seed,
	}
	fed := data.BuildVision(cfg, clients, het, seed+1)
	return &fl.Env{Fed: fed, Model: models.MLP(12, 16, 4)}
}

func runCfg(rounds int) fl.Config {
	return fl.Config{
		Rounds: rounds, ClientsPerRound: 4, LocalEpochs: 2, BatchSize: 16,
		LR: 0.05, Momentum: 0.5, EvalEvery: 0, Seed: 3,
	}
}

func TestFedCrossEndToEndImproves(t *testing.T) {
	env := integrationEnv(1, 8, data.Heterogeneity{Beta: 0.5})
	algo := MustNew(DefaultOptions())
	hist, err := fl.Run(algo, env, runCfg(12))
	if err != nil {
		t.Fatal(err)
	}
	final := hist.Final()
	if final.TestAcc < 0.4 {
		t.Fatalf("FedCross final accuracy %v; expected clearly above 25%% chance", final.TestAcc)
	}
	if hist.Comm.ModelsDown != 12*4 || hist.Comm.VarsDown != 0 || hist.Comm.GeneratorsDown != 0 {
		t.Fatalf("comm profile %+v; FedCross must match FedAvg's 2K models", hist.Comm)
	}
}

func TestFedCrossAllStrategiesRun(t *testing.T) {
	for _, s := range []Strategy{InOrder, HighestSimilarity, LowestSimilarity} {
		opts := DefaultOptions()
		opts.Strategy = s
		env := integrationEnv(2, 6, data.Heterogeneity{Beta: 1.0})
		hist, err := fl.Run(MustNew(opts), env, runCfg(4))
		if err != nil {
			t.Fatalf("strategy %v: %v", s, err)
		}
		if hist.Final().TestAcc <= 0 {
			t.Fatalf("strategy %v produced zero accuracy", s)
		}
	}
}

func TestFedCrossAccelerationModesRun(t *testing.T) {
	for _, m := range []AccelMode{AccelPropeller, AccelDynamicAlpha, AccelBoth} {
		opts := DefaultOptions()
		opts.Accel = m
		opts.AccelRounds = 4
		opts.PropellerCount = 2
		env := integrationEnv(3, 6, data.Heterogeneity{IID: true})
		hist, err := fl.Run(MustNew(opts), env, runCfg(6))
		if err != nil {
			t.Fatalf("accel %v: %v", m, err)
		}
		if hist.Final().TestAcc <= 0 {
			t.Fatalf("accel %v produced zero accuracy", m)
		}
	}
}

func TestFedCrossToleratesDropout(t *testing.T) {
	env := integrationEnv(4, 8, data.Heterogeneity{Beta: 0.5})
	cfg := runCfg(6)
	cfg.Faults.CrashRate = 0.4
	hist, err := fl.Run(MustNew(DefaultOptions()), env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Final().TestAcc <= 0 {
		t.Fatal("dropout run produced zero accuracy")
	}
}

func TestFedCrossMiddlewareConverge(t *testing.T) {
	// The cross-aggregation restricts weight differences, so middleware
	// models should grow more similar over training (the paper's
	// "eventually become similar" claim).
	env := integrationEnv(5, 6, data.Heterogeneity{IID: true})
	algo := MustNew(DefaultOptions())
	cfg := runCfg(2)
	if _, err := fl.Run(algo, env, cfg); err != nil {
		t.Fatal(err)
	}
	early := middlewareSpread(algo)

	algo2 := MustNew(DefaultOptions())
	cfg2 := runCfg(16)
	if _, err := fl.Run(algo2, env, cfg2); err != nil {
		t.Fatal(err)
	}
	late := middlewareSpread(algo2)
	if late >= early {
		t.Fatalf("middleware spread should shrink with training: %v (2 rounds) vs %v (16 rounds)", early, late)
	}
}

// middlewareSpread is the mean distance of middleware models from their
// average.
func middlewareSpread(f *FedCross) float64 {
	mid := f.Middleware()
	mean := GlobalModelGen(mid)
	s := 0.0
	for _, m := range mid {
		s += m.DistanceSq(mean)
	}
	return s / float64(len(mid))
}

func TestFedCrossNeedsTwoClients(t *testing.T) {
	env := integrationEnv(6, 1, data.Heterogeneity{IID: true})
	cfg := runCfg(2)
	cfg.ClientsPerRound = 1
	if _, err := fl.Run(MustNew(DefaultOptions()), env, cfg); err == nil {
		t.Fatal("expected error with a single client")
	}
}

func TestFedCrossName(t *testing.T) {
	if MustNew(DefaultOptions()).Name() != "fedcross" {
		t.Fatal("vanilla name")
	}
	o := DefaultOptions()
	o.Accel = AccelBoth
	o.AccelRounds = 2
	if MustNew(o).Name() != "fedcross+pm-da" {
		t.Fatal("accelerated name")
	}
	if MustNew(DefaultOptions()).Category() != "Multi-Model Guided" {
		t.Fatal("category")
	}
}
