package fl

import (
	"errors"
	"reflect"
	"testing"

	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// wireAlgo is a minimal FedAvg-like algorithm that routes every payload
// through the simulated wire and its aggregation through ReduceUploads —
// the smallest in-package stack that exercises the adversary's two seams
// plus the reducer plug.
type wireAlgo struct {
	Wire
	env    *Env
	cfg    Config
	rng    *tensor.RNG
	global nn.ParamVector
}

func (s *wireAlgo) Name() string     { return "wiremean" }
func (s *wireAlgo) Category() string { return "Test" }

func (s *wireAlgo) Init(env *Env, cfg Config, rng *tensor.RNG) error {
	s.env, s.cfg, s.rng = env, cfg, rng
	s.global = nn.FlattenParams(env.Model.New(rng).Params())
	return nil
}

func (s *wireAlgo) Round(r int, selected []int) error {
	tr := s.Transport()
	var survivors []int
	for _, ci := range selected {
		if ci >= 0 {
			survivors = append(survivors, ci)
		}
	}
	recv := tr.Broadcast(nil, survivors, s.global)
	rngs := s.rng.SplitN(len(survivors))
	jobs := make([]LocalJob, len(survivors))
	for i, ci := range survivors {
		jobs[i] = LocalJob{Client: ci, Spec: LocalSpec{
			Init: recv, Epochs: s.cfg.LocalEpochs, BatchSize: s.cfg.BatchSize,
			LR: s.cfg.LR, Momentum: s.cfg.Momentum,
		}, RNG: rngs[i]}
	}
	results, err := TrainAll(s.env, jobs, s.cfg.Allowance())
	if err != nil {
		return err
	}
	var uploads []nn.ParamVector
	var weights []float64
	for j, res := range results {
		dec, ok := tr.Up(res.Params, jobs[j].Client, res.Params, recv)
		if !ok {
			continue
		}
		uploads = append(uploads, dec)
		weights = append(weights, float64(res.Samples))
	}
	if len(uploads) == 0 {
		return nil
	}
	agg, err := ReduceUploads(s.cfg.Reducer, uploads, weights)
	if errors.Is(err, ErrNoFiniteUploads) {
		return nil
	}
	if err != nil {
		return err
	}
	s.global = agg
	return nil
}

func (s *wireAlgo) Global() nn.ParamVector { return s.global }
func (s *wireAlgo) RoundComm(k int) CommProfile {
	return CommProfile{ModelsDown: k, ModelsUp: k}
}

func TestAdversaryOptionsValidate(t *testing.T) {
	for _, bad := range []AdversaryOptions{
		{Attack: "nuke", Frac: 0.1},
		{Attack: AttackSignFlip, Frac: -0.1},
		{Attack: AttackSignFlip, Frac: 1},
		{Attack: AttackScale, Frac: 0.1, Scale: -2},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%+v should not validate", bad)
		}
	}
	if err := (AdversaryOptions{}).Validate(); err != nil {
		t.Fatal(err)
	}
	if (AdversaryOptions{Attack: AttackSignFlip}).Active() {
		t.Fatal("zero fraction must be inactive")
	}
}

// TestByzantineSeedSplit: the compromised set is a pure function of the
// seed split — identical across constructions and of the documented size.
func TestByzantineSeedSplit(t *testing.T) {
	opts := AdversaryOptions{Attack: AttackSignFlip, Frac: 0.3}
	mk := func() *Adversary {
		rng := tensor.NewRNG(42)
		for i := 0; i < 4; i++ {
			rng.Split() // the engine's earlier streams
		}
		return NewAdversary(opts, 20, rng.Split())
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a.Attackers(), b.Attackers()) {
		t.Fatalf("attacker set must be seed-deterministic: %v vs %v", a.Attackers(), b.Attackers())
	}
	if len(a.Attackers()) != 6 { // round(0.3·20)
		t.Fatalf("want 6 attackers, got %v", a.Attackers())
	}
	for _, c := range a.Attackers() {
		if !a.IsAttacker(c) {
			t.Fatalf("IsAttacker(%d) = false for listed attacker", c)
		}
	}
}

func TestCorruptUpload(t *testing.T) {
	rng := tensor.NewRNG(1)
	mk := func(opts AdversaryOptions) *Adversary {
		return NewAdversary(opts, 4, rng.Split())
	}
	vec := nn.ParamVector{1, -2, 3}
	orig := append(nn.ParamVector(nil), vec...)

	sf := mk(AdversaryOptions{Attack: AttackSignFlip, Frac: 0.99})
	sf.BeginRound()
	got := sf.CorruptUpload(sf.Attackers()[0], vec)
	if want := (nn.ParamVector{-1, 2, -3}); !reflect.DeepEqual(got, want) {
		t.Fatalf("signflip: got %v", got)
	}
	sc := mk(AdversaryOptions{Attack: AttackScale, Frac: 0.99, Scale: 4})
	sc.BeginRound()
	if got := sc.CorruptUpload(sc.Attackers()[0], vec); !reflect.DeepEqual(got, nn.ParamVector{4, -8, 12}) {
		t.Fatalf("scale: got %v", got)
	}
	co := mk(AdversaryOptions{Attack: AttackCollude, Frac: 0.99, Scale: 2})
	co.BeginRound()
	att := co.Attackers()
	first := co.CorruptUpload(att[0], vec)
	second := co.CorruptUpload(att[1], nn.ParamVector{9, 9, 9})
	if !reflect.DeepEqual(first, nn.ParamVector{-2, 4, -6}) {
		t.Fatalf("collude mint: got %v", first)
	}
	if &first[0] != &second[0] {
		t.Fatal("colluders must share one malicious vector")
	}
	lf := mk(AdversaryOptions{Attack: AttackLabelFlip, Frac: 0.99})
	lf.BeginRound()
	if got := lf.CorruptUpload(lf.Attackers()[0], vec); &got[0] != &vec[0] {
		t.Fatal("labelflip must pass uploads through untouched")
	}
	if !reflect.DeepEqual(vec, orig) {
		t.Fatal("CorruptUpload must never mutate the input vector")
	}
	// Honest clients pass through on every attack.
	honest := -1
	for c := 0; c < 4; c++ {
		if !sf.IsAttacker(c) {
			honest = c
			break
		}
	}
	if honest >= 0 {
		if got := sf.CorruptUpload(honest, vec); &got[0] != &vec[0] {
			t.Fatal("honest upload must pass through")
		}
	}
	// Nil adversary is a no-op.
	var nilAdv *Adversary
	nilAdv.BeginRound()
	if got := nilAdv.CorruptUpload(0, vec); &got[0] != &vec[0] {
		t.Fatal("nil adversary must pass uploads through")
	}
}

func TestShadowEnvFlipsOnlyAttackers(t *testing.T) {
	env := testEnv(21, 4)
	adv := NewAdversary(AdversaryOptions{Attack: AttackLabelFlip, Frac: 0.5}, 4, tensor.NewRNG(9).Split())
	shadow := adv.ShadowEnv(env)
	if shadow == env {
		t.Fatal("labelflip must produce a shadow environment")
	}
	classes := env.Fed.Clients[0].Classes
	for c := 0; c < 4; c++ {
		orig, sh := env.Fed.Clients[c], shadow.Fed.LeaseShard(c)
		shadow.Fed.ReleaseShard(c)
		if adv.IsAttacker(c) {
			if sh == orig {
				t.Fatalf("attacker %d shard must be replaced", c)
			}
			for i := range orig.Y {
				if sh.Y[i] != classes-1-orig.Y[i] {
					t.Fatalf("attacker %d label %d not flipped", c, i)
				}
			}
			if sh.X != orig.X {
				t.Fatalf("attacker %d features must be shared, not copied", c)
			}
		} else if sh != orig {
			t.Fatalf("honest client %d shard must be shared", c)
		}
	}
	if n := shadow.Fed.OutstandingLeases(); n != 0 {
		t.Fatalf("%d shadow leases outstanding after every release", n)
	}
	// Non-labelflip attacks leave the environment alone.
	adv2 := NewAdversary(AdversaryOptions{Attack: AttackSignFlip, Frac: 0.5}, 4, tensor.NewRNG(9).Split())
	if adv2.ShadowEnv(env) != env {
		t.Fatal("signflip must not shadow the environment")
	}
}

// TestSignFlipHurtsMeanNotMedian: the end-to-end sanity check behind the
// robust experiment — with 25% sign-flip attackers the mean aggregate
// loses accuracy while the coordinate-wise median holds.
func TestSignFlipHurtsMeanNotMedian(t *testing.T) {
	run := func(attack string, r Reducer) float64 {
		cfg := Config{
			Rounds: 6, ClientsPerRound: 8, LocalEpochs: 2, BatchSize: 16,
			LR: 0.05, Momentum: 0.5, Seed: 17, Reducer: r,
			Adversary: AdversaryOptions{Attack: attack, Frac: 0.25},
		}
		if attack == "" {
			cfg.Adversary = AdversaryOptions{}
		}
		h, err := Run(&wireAlgo{}, testEnv(24, 16), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h.Final().TestAcc
	}
	benign := run("", nil)
	attackedMean := run(AttackSignFlip, nil)
	attackedMedian := run(AttackSignFlip, &MedianReducer{})
	if attackedMean >= benign {
		t.Fatalf("sign-flip should hurt the mean: benign %v, attacked %v", benign, attackedMean)
	}
	if attackedMedian <= attackedMean {
		t.Fatalf("median should beat the mean under attack: median %v, mean %v", attackedMedian, attackedMean)
	}
}
