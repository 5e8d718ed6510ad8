// Package experiments runs the paper's evaluation (Section IV). Tables
// II–III, Figures 4–9, the three ablations, the fidelity gate's sweep and
// the five system sweeps that are not paper artifacts (comm, robust,
// async, faults, churn) are declared grids on one runner — see grid.go;
// Table I and Figure 3 keep their own code. Every run builds its workload
// from a Profile (Tiny for tests/benches, Small for examples, Paper for
// the full-scale CLI run) and renders the rows or series the paper
// reports. README "Fidelity notes" records where the measured shapes
// depart from the paper's.
package experiments

import (
	"fmt"

	"fedcross/internal/baselines"
	"fedcross/internal/core"
	"fedcross/internal/data"
	"fedcross/internal/fl"
	"fedcross/internal/models"
)

// Profile sizes an experiment run. The paper's absolute scale (2000 GPU
// rounds on CIFAR) is out of reach for a single-CPU pure-Go run, so
// profiles preserve relative structure: same K/N ratio, same local-epoch
// and batch settings, scaled sample counts and rounds.
type Profile struct {
	// Name labels the profile in reports.
	Name string
	// VisionTrainPerClass / VisionTestPerClass size the synthetic vision
	// corpora.
	VisionTrainPerClass, VisionTestPerClass int
	// TextSamplesPerClient / TextTestSamples size the LEAF-style tasks.
	TextSamplesPerClient, TextTestSamples int
	// NumClients is N; ClientsPerRound is K (the paper activates 10%).
	NumClients, ClientsPerRound int
	// Rounds, LocalEpochs, BatchSize, LR, Momentum mirror fl.Config.
	Rounds, LocalEpochs, BatchSize int
	LR, Momentum                   float64
	// EvalEvery controls the learning-curve resolution.
	EvalEvery int
	// Seeds are the independent repetitions behind mean±std cells.
	Seeds []int64
	// Parallelism caps the training/evaluation worker goroutines per run
	// (fl.Config.Parallelism): 0 uses every core, 1 forces serial
	// execution. Results are identical either way.
	Parallelism int
	// Jobs caps how many grid cells (independent algorithm runs) an
	// experiment harness executes concurrently: 0 uses every core, 1
	// forces strictly sequential cells. Cells arbitrate their inner
	// Parallelism against one shared worker budget, so any Jobs ×
	// Parallelism combination is safe — and results are bit-identical at
	// every setting (see Scheduler).
	Jobs int
	// PrefetchRounds is how many future rounds of planned cohorts each
	// run warms through the lazy source's background pool
	// (fl.Config.PrefetchRounds): 0 disables lookahead. Histories are
	// bit-identical at every setting; prefetch moves wall-clock only.
	PrefetchRounds int
	// Codec, Network and DeadlineSec configure the simulated wire every
	// run's payloads travel over (fl.Config.Transport). Zero values mean
	// the pass-through reference wire.
	Codec, Network string
	DeadlineSec    float64
	// Reducer names the server-side aggregation rule every run's upload
	// fold routes through (core.ReducerByName registry: mean,
	// trimmed[:frac], median, krum[:f], multikrum[:f]:[m]). "" is the
	// nil reducer, the weighted mean (nil ≡ "mean", relations row reducer).
	Reducer string
	// Attack, AttackFrac and AttackScale configure Byzantine client
	// injection (fl.AdversaryOptions); zero values run benign.
	Attack                  string
	AttackFrac, AttackScale float64
	// Faults configures deterministic fault injection (fl.Config.Faults);
	// the zero value runs fault-free and bit-identical to earlier engines.
	Faults fl.FaultOptions
	// MinUploads is the per-round upload-acceptance quorum
	// (fl.Config.MinUploads); 0 disables quorum degradation.
	MinUploads int
	// Retries and RetryBackoffSec configure deadline-aware upload retries
	// on the simulated wire (fl.TransportOptions).
	Retries         int
	RetryBackoffSec float64
	// Churn configures availability traces and population drift
	// (fl.Config.Churn); the zero value keeps the fleet static.
	Churn fl.ChurnOptions
	// Checkpoint configures round-granular snapshots and resume
	// (fl.Config.Checkpoint); the zero value never touches disk.
	Checkpoint fl.CheckpointOptions
}

// TinyProfile sizes experiments for unit tests and testing.B benches:
// every harness completes in seconds on one CPU.
func TinyProfile() Profile {
	return Profile{
		Name:                "tiny",
		VisionTrainPerClass: 30, VisionTestPerClass: 10,
		TextSamplesPerClient: 20, TextTestSamples: 120,
		NumClients: 20, ClientsPerRound: 4,
		Rounds: 8, LocalEpochs: 5, BatchSize: 25,
		LR: 0.05, Momentum: 0.5,
		EvalEvery: 2,
		Seeds:     []int64{1},
	}
}

// SmallProfile sizes the runnable examples: minutes, with visible learning
// curves.
func SmallProfile() Profile {
	return Profile{
		Name:                "small",
		VisionTrainPerClass: 60, VisionTestPerClass: 20,
		TextSamplesPerClient: 40, TextTestSamples: 300,
		NumClients: 40, ClientsPerRound: 6,
		Rounds: 30, LocalEpochs: 3, BatchSize: 25,
		LR: 0.02, Momentum: 0.5,
		EvalEvery: 3,
		Seeds:     []int64{1, 2},
	}
}

// PaperProfile mirrors the paper's relative setup (N=100, K=10, E=5,
// B=50, lr=0.01, momentum=0.5) with sample counts and rounds scaled to
// what a CPU run can finish; invoke via cmd/fedsim for the long runs.
func PaperProfile() Profile {
	return Profile{
		Name:                "paper",
		VisionTrainPerClass: 100, VisionTestPerClass: 25,
		TextSamplesPerClient: 60, TextTestSamples: 500,
		NumClients: 100, ClientsPerRound: 10,
		Rounds: 200, LocalEpochs: 5, BatchSize: 50,
		LR: 0.01, Momentum: 0.5,
		EvalEvery: 10,
		Seeds:     []int64{1, 2, 3},
	}
}

// Config converts the profile into the runner configuration for a given
// seed. A non-empty Reducer name is resolved through core.ReducerByName;
// an unknown name panics, so CLI layers must pre-validate with
// ValidateReducer (every run would fail identically anyway — the panic
// just surfaces the typo at configuration time instead of once per cell).
// Each call constructs a fresh reducer instance: reducers carry per-run
// worker allowances, so concurrent grid cells must never share one.
func (p Profile) Config(seed int64) fl.Config {
	cfg := fl.Config{
		Rounds:          p.Rounds,
		ClientsPerRound: p.ClientsPerRound,
		LocalEpochs:     p.LocalEpochs,
		BatchSize:       p.BatchSize,
		LR:              p.LR,
		Momentum:        p.Momentum,
		EvalEvery:       p.EvalEvery,
		Seed:            seed,
		Parallelism:     p.Parallelism,
		PrefetchRounds:  p.PrefetchRounds,
		Transport: fl.TransportOptions{
			Codec:           p.Codec,
			Network:         p.Network,
			DeadlineSec:     p.DeadlineSec,
			Retries:         p.Retries,
			RetryBackoffSec: p.RetryBackoffSec,
		},
		Adversary: fl.AdversaryOptions{
			Attack: p.Attack,
			Frac:   p.AttackFrac,
			Scale:  p.AttackScale,
		},
		Faults:     p.Faults,
		MinUploads: p.MinUploads,
		Churn:      p.Churn,
		Checkpoint: p.Checkpoint,
	}
	if p.Reducer != "" {
		r, err := core.ReducerByName(p.Reducer)
		if err != nil {
			panic(fmt.Sprintf("experiments: profile %q: %v", p.Name, err))
		}
		cfg.Reducer = r
	}
	return cfg
}

// ValidateReducer checks a reducer name against the full registry without
// constructing a run — the CLI pre-flight for Profile.Config's panic.
func ValidateReducer(name string) error {
	if name == "" {
		return nil
	}
	_, err := core.ReducerByName(name)
	return err
}

// AlgorithmNames lists the six methods of the comparison in the paper's
// Table-I order.
func AlgorithmNames() []string {
	return []string{"fedavg", "fedprox", "scaffold", "fedgen", "clusamp", "fedcross"}
}

// NewAlgorithm builds a method by name with the paper's settings (FedProx
// µ=0.01, FedCross α=0.99 + lowest similarity).
func NewAlgorithm(name string) (fl.Algorithm, error) {
	switch name {
	case "fedavg":
		return baselines.NewFedAvg(), nil
	case "fedprox":
		return baselines.NewFedProx(0.01)
	case "scaffold":
		return baselines.NewSCAFFOLD(), nil
	case "fedgen":
		return baselines.NewFedGen(), nil
	case "clusamp":
		return baselines.NewCluSamp(), nil
	case "fedcross":
		return core.New(core.DefaultOptions())
	default:
		return nil, fmt.Errorf("experiments: unknown algorithm %q (want one of %v)", name, AlgorithmNames())
	}
}

// DatasetNames lists the five evaluation datasets (synthetic substitutes;
// see internal/data's package comment).
func DatasetNames() []string {
	return []string{"vision10", "vision100", "femnist", "shakespeare", "sent140"}
}

// BuildEnv constructs the environment for a dataset/model pair under the
// profile. Vision datasets honour the heterogeneity setting; the
// LEAF-style datasets are naturally non-IID and ignore it. For text
// datasets the model name is ignored (they fix their LSTM architecture).
func (p Profile) BuildEnv(dataset, model string, het data.Heterogeneity, seed int64) (*fl.Env, error) {
	switch dataset {
	case "vision10", "vision100":
		classes := 10
		if dataset == "vision100" {
			classes = 100
		}
		cfg := data.VisionConfig{
			Classes: classes, Features: models.VisionFeatures,
			TrainPerClass: p.VisionTrainPerClass, TestPerClass: p.VisionTestPerClass,
			ModesPerClass: 4, Sep: 0.55, Noise: 0.9, Seed: seed,
		}
		if classes == 100 {
			// CIFAR-100 analogue: more classes, fewer samples each.
			cfg.TrainPerClass = maxInt(4, p.VisionTrainPerClass/5)
			cfg.TestPerClass = maxInt(2, p.VisionTestPerClass/5)
			cfg.ModesPerClass = 2
		}
		fac, err := visionModel(model, classes)
		if err != nil {
			return nil, err
		}
		if p.NumClients >= LazyClientCutoff {
			// The cache holds a few rounds of cohorts; stripes take the
			// data layer's default.
			cap := clampInt(4*p.ClientsPerRound, 64, 4096)
			fed := data.BuildVisionLazy(cfg, p.NumClients, het, seed+1000, cap, 0)
			return &fl.Env{Fed: fed, Model: fac}, nil
		}
		return &fl.Env{Fed: data.BuildVision(cfg, p.NumClients, het, seed+1000), Model: fac}, nil

	case "femnist":
		cfg := data.FEMNISTConfig{
			Classes: 62, Features: models.VisionFeatures,
			Writers:       p.NumClients,
			MinSamples:    maxInt(10, p.TextSamplesPerClient/2),
			MaxSamples:    p.TextSamplesPerClient * 2,
			TestSamples:   maxInt(62, p.TextTestSamples),
			StyleStrength: 0.3, Seed: seed,
		}
		fac, err := visionModel(model, 62)
		if err != nil {
			return nil, err
		}
		return &fl.Env{Fed: data.GenerateFEMNIST(cfg), Model: fac}, nil

	case "shakespeare":
		cfg := data.ShakespeareConfig{
			Vocab: 24, SeqLen: 8,
			Clients:          p.NumClients,
			SamplesPerClient: p.TextSamplesPerClient,
			TestSamples:      p.TextTestSamples,
			Mix:              0.6, Seed: seed,
		}
		return &fl.Env{
			Fed:   data.GenerateShakespeare(cfg),
			Model: models.CharLSTM(cfg.Vocab, cfg.SeqLen, 6, 12),
		}, nil

	case "sent140":
		cfg := data.Sent140Config{
			Vocab: 40, SeqLen: 8,
			Clients:          p.NumClients,
			SamplesPerClient: p.TextSamplesPerClient,
			TestSamples:      p.TextTestSamples,
			SentimentTokens:  6, Seed: seed,
		}
		return &fl.Env{
			Fed:   data.GenerateSent140(cfg),
			Model: models.SentLSTM(cfg.Vocab, cfg.SeqLen, 6, 12),
		}, nil

	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q (want one of %v)", dataset, DatasetNames())
	}
}

func visionModel(name string, classes int) (models.Factory, error) {
	switch name {
	case "cnn", "":
		return models.CNN(classes), nil
	case "resnet":
		return models.ResNetMini(classes), nil
	case "vgg":
		return models.VGGMini(classes), nil
	case "mlp":
		return models.MLP(models.VisionFeatures, 32, classes), nil
	default:
		return models.Factory{}, fmt.Errorf("experiments: unknown vision model %q (want cnn, resnet, vgg or mlp)", name)
	}
}

// LazyClientCutoff is the population size at which BuildEnv switches the
// vision datasets from eager shard materialization to the lazy
// ClientSource: below it the whole federation fits comfortably in memory
// and stays bit-identical with every historical run; at or above it only
// the LRU working set (sized to a few rounds of selections) is resident.
const LazyClientCutoff = 512

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
