package fl

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"fedcross/internal/data"
	"fedcross/internal/models"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

func testEnv(seed int64, clients int) *Env {
	cfg := data.VisionConfig{
		Classes: 4, Features: 12,
		TrainPerClass: 40, TestPerClass: 15,
		ModesPerClass: 2, Sep: 1.2, Noise: 0.3, Seed: seed,
	}
	fed := data.BuildVision(cfg, clients, data.Heterogeneity{IID: true}, seed+1)
	return &Env{Fed: fed, Model: models.MLP(12, 16, 4)}
}

func TestTrainLocalImproves(t *testing.T) {
	env := testEnv(1, 4)
	rng := tensor.NewRNG(2)
	init := nn.FlattenParams(env.Model.New(rng).Params())
	shard := env.Fed.Clients[0]

	spec := LocalSpec{Init: init, Epochs: 10, BatchSize: 16, LR: 0.05, Momentum: 0.5}
	res, err := TrainLocal(env.Model, shard, spec, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 || res.Samples != shard.Len() {
		t.Fatalf("result %+v", res)
	}
	accBefore, _, _ := Evaluate(env.Model, init, shard, 32, Limit(0))
	accAfter, _, _ := Evaluate(env.Model, res.Params, shard, 32, Limit(0))
	if accAfter <= accBefore {
		t.Fatalf("local training should improve local accuracy: %v -> %v", accBefore, accAfter)
	}
	// Init vector must not be mutated.
	init2 := nn.FlattenParams(env.Model.New(tensor.NewRNG(2)).Params())
	for i := range init {
		if init[i] != init2[i] {
			t.Fatal("TrainLocal mutated the init vector")
		}
	}
}

func TestTrainLocalProxPullsTowardRef(t *testing.T) {
	env := testEnv(3, 2)
	rng := tensor.NewRNG(4)
	init := nn.FlattenParams(env.Model.New(rng).Params())
	shard := env.Fed.Clients[0]

	free, err := TrainLocal(env.Model, shard, LocalSpec{Init: init, Epochs: 5, BatchSize: 16, LR: 0.05, Momentum: 0}, tensor.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	prox, err := TrainLocal(env.Model, shard, LocalSpec{Init: init, Epochs: 5, BatchSize: 16, LR: 0.05, Momentum: 0, Prox: 10, ProxRef: init}, tensor.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	dFree := init.DistanceSq(free.Params)
	dProx := init.DistanceSq(prox.Params)
	if dProx >= dFree {
		t.Fatalf("proximal term must keep params closer to ref: free %v vs prox %v", dFree, dProx)
	}
}

func TestTrainLocalGradCorrectionShiftsResult(t *testing.T) {
	env := testEnv(6, 2)
	rng := tensor.NewRNG(7)
	init := nn.FlattenParams(env.Model.New(rng).Params())
	shard := env.Fed.Clients[0]

	plain, err := TrainLocal(env.Model, shard, LocalSpec{Init: init, Epochs: 2, BatchSize: 16, LR: 0.05}, tensor.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	corr := make(nn.ParamVector, len(init))
	for i := range corr {
		corr[i] = 0.01
	}
	corrected, err := TrainLocal(env.Model, shard, LocalSpec{Init: init, Epochs: 2, BatchSize: 16, LR: 0.05, GradCorrection: corr}, tensor.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Params.DistanceSq(corrected.Params) == 0 {
		t.Fatal("gradient correction should change the trajectory")
	}
}

func TestTrainLocalErrors(t *testing.T) {
	env := testEnv(9, 2)
	rng := tensor.NewRNG(10)
	init := nn.FlattenParams(env.Model.New(rng).Params())
	empty := &data.Dataset{X: tensor.Zeros(0, 12), Classes: 4}
	if _, err := TrainLocal(env.Model, empty, LocalSpec{Init: init, Epochs: 1, BatchSize: 8, LR: 0.1}, rng); err == nil {
		t.Fatal("expected error for empty shard")
	}
	if _, err := TrainLocal(env.Model, env.Fed.Clients[0], LocalSpec{Init: init[:5], Epochs: 1, BatchSize: 8, LR: 0.1}, rng); err == nil {
		t.Fatal("expected error for wrong init length")
	}
	bad := LocalSpec{Init: init, Epochs: 1, BatchSize: 8, LR: 0.1, Prox: 1, ProxRef: init[:3]}
	if _, err := TrainLocal(env.Model, env.Fed.Clients[0], bad, rng); err == nil {
		t.Fatal("expected error for wrong prox-ref length")
	}
}

func TestEvaluateBatchIndependence(t *testing.T) {
	env := testEnv(11, 2)
	vec := nn.FlattenParams(env.Model.New(tensor.NewRNG(1)).Params())
	a1, l1, err := Evaluate(env.Model, vec, env.Fed.Test, 7, Limit(0))
	if err != nil {
		t.Fatal(err)
	}
	a2, l2, err := Evaluate(env.Model, vec, env.Fed.Test, 64, Limit(0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a1-a2) > 1e-12 || math.Abs(l1-l2) > 1e-9 {
		t.Fatalf("evaluation must not depend on batch size: %v/%v vs %v/%v", a1, l1, a2, l2)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Rounds = 0 },
		func(c *Config) { c.ClientsPerRound = -1 },
		func(c *Config) { c.LocalEpochs = 0 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.LR = 0 },
		func(c *Config) { c.Momentum = 1 },
		func(c *Config) { c.EvalEvery = -1 },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestCommProfile(t *testing.T) {
	fedavg := CommProfile{ModelsDown: 10, ModelsUp: 10}
	if fedavg.OverheadClass() != "Low" {
		t.Fatalf("fedavg class %q", fedavg.OverheadClass())
	}
	scaffold := CommProfile{ModelsDown: 10, ModelsUp: 10, VarsDown: 10, VarsUp: 10}
	if scaffold.OverheadClass() != "High" {
		t.Fatalf("scaffold class %q", scaffold.OverheadClass())
	}
	fedgen := CommProfile{ModelsDown: 10, ModelsUp: 10, GeneratorsDown: 10}
	if fedgen.OverheadClass() != "Medium" {
		t.Fatalf("fedgen class %q", fedgen.OverheadClass())
	}
	if got := fedavg.TotalModelEquivalents(0.25); got != 20 {
		t.Fatalf("fedavg equivalents %v", got)
	}
	if got := fedgen.TotalModelEquivalents(0.25); got != 22.5 {
		t.Fatalf("fedgen equivalents %v", got)
	}
	if got := scaffold.Bytes(100, 25); got != 4000 {
		t.Fatalf("scaffold bytes %v", got)
	}
}

func TestAccountant(t *testing.T) {
	var a Accountant
	a.Record(CommProfile{ModelsDown: 2, ModelsUp: 2})
	a.Record(CommProfile{ModelsDown: 2, ModelsUp: 2, GeneratorsDown: 1})
	tot := a.Total()
	if tot.ModelsDown != 4 || tot.GeneratorsDown != 1 {
		t.Fatalf("total %+v", tot)
	}
}

// stubAlgo is a minimal FedAvg-like algorithm for Runner tests.
type stubAlgo struct {
	env      *Env
	cfg      Config
	rng      *tensor.RNG
	global   nn.ParamVector
	rounds   []([]int)
	failInit bool
}

func (s *stubAlgo) Name() string     { return "stub" }
func (s *stubAlgo) Category() string { return "Test" }

func (s *stubAlgo) Init(env *Env, cfg Config, rng *tensor.RNG) error {
	if s.failInit {
		return fmt.Errorf("boom")
	}
	s.env, s.cfg, s.rng = env, cfg, rng
	s.global = nn.FlattenParams(env.Model.New(rng).Params())
	return nil
}

func (s *stubAlgo) Round(r int, selected []int) error {
	s.rounds = append(s.rounds, append([]int(nil), selected...))
	var got []nn.ParamVector
	for _, ci := range selected {
		if ci < 0 {
			continue
		}
		res, err := TrainLocal(s.env.Model, s.env.Fed.Clients[ci], LocalSpec{
			Init: s.global, Epochs: s.cfg.LocalEpochs, BatchSize: s.cfg.BatchSize,
			LR: s.cfg.LR, Momentum: s.cfg.Momentum,
		}, s.rng.Split())
		if err != nil {
			return err
		}
		got = append(got, res.Params)
	}
	if len(got) > 0 {
		s.global = nn.MeanVectors(got)
	}
	return nil
}

func (s *stubAlgo) Global() nn.ParamVector { return s.global }

func (s *stubAlgo) RoundComm(k int) CommProfile {
	return CommProfile{ModelsDown: k, ModelsUp: k}
}

func TestRunEndToEnd(t *testing.T) {
	env := testEnv(12, 6)
	cfg := Config{Rounds: 6, ClientsPerRound: 3, LocalEpochs: 2, BatchSize: 16, LR: 0.05, Momentum: 0.5, EvalEvery: 2, Seed: 3}
	algo := &stubAlgo{}
	hist, err := Run(algo, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Metrics) != 3 {
		t.Fatalf("expected 3 evals, got %d", len(hist.Metrics))
	}
	if hist.Final().Round != 6 {
		t.Fatalf("final round %d", hist.Final().Round)
	}
	if hist.Comm.ModelsDown != 6*3 {
		t.Fatalf("comm %+v", hist.Comm)
	}
	// Selection picks K distinct clients.
	for _, sel := range algo.rounds {
		if len(sel) != 3 {
			t.Fatalf("selected %d clients", len(sel))
		}
		seen := map[int]bool{}
		for _, c := range sel {
			if c < 0 || c >= 6 || seen[c] {
				t.Fatalf("bad selection %v", sel)
			}
			seen[c] = true
		}
	}
}

func TestRunWithDropout(t *testing.T) {
	env := testEnv(14, 6)
	cfg := Config{Rounds: 4, ClientsPerRound: 4, LocalEpochs: 1, BatchSize: 16, LR: 0.05, Momentum: 0, Seed: 5, Faults: FaultOptions{CrashRate: 0.5}}
	algo := &stubAlgo{}
	if _, err := Run(algo, env, cfg); err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, sel := range algo.rounds {
		for _, c := range sel {
			if c == -1 {
				dropped++
			}
		}
	}
	if dropped == 0 {
		t.Fatal("expected some dropped clients at a 50% crash rate")
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	env := testEnv(15, 3)
	cfg := Config{Rounds: 2, ClientsPerRound: 2, LocalEpochs: 1, BatchSize: 8, LR: 0.05, Seed: 1}
	if _, err := Run(&stubAlgo{failInit: true}, env, cfg); err == nil {
		t.Fatal("expected init error to propagate")
	}
	bad := cfg
	bad.Rounds = 0
	if _, err := Run(&stubAlgo{}, env, bad); err == nil {
		t.Fatal("expected config validation error")
	}
}

// TestNonFiniteModelIsAnError: a global model with a NaN coordinate makes
// each engine return an error naming itself, the algorithm and the round
// instead of scoring the model as 0.00, wrapping a *DivergedError that
// carries the round and the coordinate. Under Run the NaN arrives as one
// client's update, trained on a NaN feature. RunAsync drops that update at
// the server door and stays finite, so there the NaN is planted in the
// starting model.
func TestNonFiniteModelIsAnError(t *testing.T) {
	env := testEnv(36, 8)
	bad := *env.Fed.Clients[3]
	bad.X = tensor.New(append([]float64(nil), bad.X.Data...), bad.X.Shape...)
	bad.X.Data[0] = math.NaN()
	env.Fed.Clients[3] = &bad

	cfg := asyncCfg(4, 0)
	cfg.ClientsPerRound = 8 // select everyone → train on the NaN
	_, err := Run(&stubAlgo{}, env, cfg)
	var d *DivergedError
	if err == nil || err.Error() != "fl: Run: stub eval after round 2: global model coordinate 0 is NaN" {
		t.Errorf("sync run: error %v, want the non-finite model named", err)
	} else if !errors.As(err, &d) || d.Round != 2 || d.Coord != 0 {
		t.Errorf("sync run: error %v does not carry the round and coordinate (%+v)", err, d)
	}
	opts := AsyncOptions{Buffer: 2, InFlight: 8, Commits: 4}
	if _, err := RunAsync(env, cfg, opts); err != nil {
		t.Errorf("async run with a NaN upload: %v, want it dropped at the door", err)
	}
	nan, newNet := env.Model, env.Model.New
	nan.Name += "-nan" // its own replica pool
	nan.New = func(rng *tensor.RNG) *nn.Sequential {
		net := newNet(rng)
		net.Params()[0].Data[5] = math.NaN()
		return net
	}
	env.Model = nan
	_, err = RunAsync(env, cfg, opts)
	if err == nil || err.Error() != "fl: RunAsync: fedbuff eval after round 2: global model coordinate 5 is NaN" {
		t.Errorf("async run from a NaN model: error %v, want the non-finite model named", err)
	} else if !errors.As(err, &d) || d.Round != 2 || d.Coord != 5 {
		t.Errorf("async run: error %v does not carry the round and coordinate (%+v)", err, d)
	}
}

func TestHistoryHelpers(t *testing.T) {
	h := &History{Metrics: []RoundMetric{
		{Round: 1, TestAcc: 0.3},
		{Round: 2, TestAcc: 0.6},
		{Round: 3, TestAcc: 0.5},
	}}
	if h.BestAcc() != 0.6 {
		t.Fatalf("BestAcc %v", h.BestAcc())
	}
	if h.RoundsToAcc(0.55) != 2 {
		t.Fatalf("RoundsToAcc %d", h.RoundsToAcc(0.55))
	}
	if h.RoundsToAcc(0.9) != -1 {
		t.Fatalf("RoundsToAcc unreachable = %d", h.RoundsToAcc(0.9))
	}
	if h.Final().Round != 3 {
		t.Fatalf("Final %+v", h.Final())
	}
	empty := &History{}
	if empty.Final().Round != 0 || empty.BestAcc() != 0 {
		t.Fatal("empty history helpers")
	}
}
