package main

import (
	"fmt"
	"path/filepath"
	"runtime"

	"fedcross/internal/baselines"
	"fedcross/internal/core"
	"fedcross/internal/data"
	"fedcross/internal/experiments"
	"fedcross/internal/fl"
	"fedcross/internal/models"
)

// scale picks the measured sizes or the smoke sizes (2 rounds, N=10^4
// standing in for 10^6) that `go test` and -smoke run in seconds.
type scale int

const (
	fullScale scale = iota
	smokeScale
)

// coldStart empties a lazy source's shard cache, so that a run starts
// as a fresh process would: otherwise a repeat of the same federation
// never synthesizes a shard.
func coldStart(env *fl.Env) {
	if lazy, ok := env.Fed.Source.(*data.Lazy); ok {
		lazy.DropCaches()
	}
}

func pick(s scale, full, smoke int) int {
	if s == smokeScale {
		return smoke
	}
	return full
}

// workload is one named set of inputs. The seed drives data synthesis,
// the partition and Config.Seed; the engine receives only the env and
// config built here.
type workload struct {
	name string
	// why is the one-line reason recorded in BENCHMARK.json.
	why string
	// accFloor is the mean final accuracy a full-scale pass must clear;
	// accTarget is the accuracy time_to_acc_s is measured against.
	accFloor, accTarget float64
	// build is the cold environment build timed as setup_s.
	build func(seed int64, s scale) (*fl.Env, error)
	// config returns the run configuration; dir is where a checkpointing
	// workload keeps its snapshot.
	config func(seed int64, s scale, dir string) fl.Config
	// algo constructs the sync algorithm; nil marks an fl.RunAsync
	// workload configured by async.
	algo  func() fl.Algorithm
	async func(s scale) fl.AsyncOptions
}

// rounds is the number of server versions one run produces: sync rounds
// or async commits.
func (w *workload) rounds(cfg fl.Config, s scale) int {
	if w.async != nil {
		return w.async(s).Commits
	}
	return cfg.Rounds
}

// run executes one simulation. A nil tracer is the untraced product
// path; otherwise the benchmark's wrappers are interposed at the
// interfaces the engine already accepts. The algorithm is returned so
// probes can read its final state; it is nil for an async workload.
func (w *workload) run(env *fl.Env, cfg fl.Config, s scale, tr *tracer) (*fl.History, fl.Algorithm, error) {
	if tr != nil {
		env = tr.wrapEnv(env)
		if cfg.Reducer != nil {
			cfg.Reducer = tr.wrapReducer(cfg.Reducer)
		}
	}
	if w.async != nil {
		h, err := fl.RunAsync(env, cfg, w.async(s))
		return h, nil, err
	}
	inner := w.algo()
	algo := inner
	if tr != nil {
		algo = tr.wrapAlgo(inner)
	}
	h, err := fl.Run(algo, env, cfg)
	return h, inner, err
}

// The synthetic vision task is eased from the experiment profiles'
// Sep 0.55 / Noise 0.9 so that every seed converges inside a run of
// about a second: at the profiles' difficulty the 30-round accuracy of
// the CNN ranges 0.43-0.70 across seeds, which no regression bound
// survives. Difficulty does not change what the kernels compute.
const (
	taskSep   = 1.0
	taskNoise = 0.6
)

func visionConfig(seed int64, trainPerClass, testPerClass int) data.VisionConfig {
	return data.VisionConfig{
		Classes: 10, Features: models.VisionFeatures,
		TrainPerClass: trainPerClass, TestPerClass: testPerClass,
		ModesPerClass: 4, Sep: taskSep, Noise: taskNoise, Seed: seed,
	}
}

var noniid = data.Heterogeneity{Beta: 0.5}

// paperEnv is the paper's own setting: vision10, CNN, Dir(0.5), N=100.
func paperEnv(seed int64, s scale) (*fl.Env, error) {
	vc := visionConfig(seed, pick(s, 500, 60), pick(s, 50, 10))
	return &fl.Env{Fed: data.BuildVision(vc, 100, noniid, seed+1000), Model: models.CNN(10)}, nil
}

func paperConfig(seed int64, s scale) fl.Config {
	return fl.Config{
		Rounds: pick(s, 20, 2), ClientsPerRound: 10, LocalEpochs: 5, BatchSize: 50,
		LR: 0.01, Momentum: 0.5, EvalEvery: 3, Seed: seed,
		Parallelism: runtime.GOMAXPROCS(0),
	}
}

// lazyProfile sizes the population-scale federation through the
// product's own Profile.BuildEnv, which picks the lazy striped source
// and its auto capacity. 10^4 samples over 10^6 clients leave 1% of the
// population trainable, so a K=1000 cohort leases about ten shards.
func lazyProfile(s scale) experiments.Profile {
	p := experiments.TinyProfile()
	p.VisionTrainPerClass = pick(s, 1000, 100)
	p.VisionTestPerClass = pick(s, 50, 10)
	p.NumClients = pick(s, 1_000_000, 10_000)
	p.ClientsPerRound = pick(s, 1000, 100)
	p.Rounds = pick(s, 40, 2)
	p.EvalEvery = 0
	p.PrefetchRounds = 1
	p.Parallelism = runtime.GOMAXPROCS(0)
	return p
}

func newFedCross() fl.Algorithm { return core.MustNew(core.DefaultOptions()) }

var workloads = []*workload{
	{
		name:     "sync_cnn_noniid",
		why:      "the paper's setting (FedCross, CNN, Dir(0.5), N=100, K=10, E=5): over 95% of a round is local-training kernels, so kernel, backend and replica-pool changes show here",
		accFloor: 0.85, accTarget: 0.8,
		build:  paperEnv,
		config: func(seed int64, s scale, _ string) fl.Config { return paperConfig(seed, s) },
		algo:   newFedCross,
	},
	{
		name:     "server_heavy_k64",
		why:      "same sync engine, opposite profile (MLP, K=64 ten-sample shards, int8 codec, lte link, six fault kinds): codec, retries, K*K Gram and cross-aggregation dominate, training is small",
		accFloor: 0.85, accTarget: 0.8,
		build: func(seed int64, s scale) (*fl.Env, error) {
			n := pick(s, 256, 64)
			// n samples per class over n clients: ten-sample shards on average.
			vc := visionConfig(seed, n, 50)
			return &fl.Env{
				Fed:   data.BuildVision(vc, n, noniid, seed+1000),
				Model: models.MLP(models.VisionFeatures, 256, 10),
			}, nil
		},
		config: func(seed int64, s scale, _ string) fl.Config {
			k := pick(s, 64, 16)
			return fl.Config{
				Rounds: pick(s, 8, 2), ClientsPerRound: k, LocalEpochs: 1, BatchSize: 50,
				LR: 0.05, Momentum: 0.5, EvalEvery: 1, Seed: seed,
				Parallelism: runtime.GOMAXPROCS(0),
				Transport:   fl.TransportOptions{Codec: "int8", Network: "lte", DeadlineSec: 60, Retries: 2},
				Faults: fl.FaultOptions{
					CrashRate: 0.05, DropRate: 0.05, TruncateRate: 0.05,
					CorruptRate: 0.05, DuplicateRate: 0.05, StraggleRate: 0.05,
				},
				MinUploads: k / 2,
			}
		},
		algo: newFedCross,
	},
	{
		name:     "lazy_1m_fedavg",
		why:      "population scale (FedAvg, 10^6 lazy clients, K=1000, prefetch): selection's Perm(N), the assignment build and the shard cache dominate; the only workload where setup_s and peak_rss_mb are first-order",
		accFloor: 0.9, accTarget: 0.9,
		build: func(seed int64, s scale) (*fl.Env, error) {
			return lazyProfile(s).BuildEnv("vision10", "mlp", noniid, seed)
		},
		config: func(seed int64, s scale, _ string) fl.Config { return lazyProfile(s).Config(seed) },
		algo:   func() fl.Algorithm { return baselines.NewFedAvg() },
	},
	{
		name:     "async_faulted_ckpt",
		why:      "fl.RunAsync on the sync_cnn_noniid federation with faults and write-ahead snapshots: same pool, wire and kernels under per-arrival folds, so a sync gain bought at the async engine's expense shows here",
		accFloor: 0.85, accTarget: 0.8,
		build: paperEnv,
		config: func(seed int64, s scale, dir string) fl.Config {
			cfg := paperConfig(seed, s)
			cfg.EvalEvery = 5
			cfg.Transport = fl.TransportOptions{Network: "lte", Retries: 2}
			cfg.Faults = fl.FaultOptions{CrashRate: 0.05, DropRate: 0.05, StraggleRate: 0.05}
			cfg.Checkpoint = fl.CheckpointOptions{Path: filepath.Join(dir, "async.ckpt"), Every: 5}
			return cfg
		},
		async: func(s scale) fl.AsyncOptions {
			return fl.AsyncOptions{Buffer: 5, InFlight: 10, Commits: pick(s, 40, 2)}
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
