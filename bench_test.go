package fedcross

// Benchmarks of the round engine, the scheduler, the codecs, the
// similarity pass, local training and selection. Run them with
//
//	go test -run xxx -bench=. -benchmem .
//
// CI gates two exact counts from them: BenchmarkRoundParallel/serial's
// allocs/op and wire bytes a round, and BenchmarkSelectClients's B/op.
// Kernel speed is gated as same-process ratios in gates_test.go.

import (
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"fedcross/internal/core"
	"fedcross/internal/data"
	"fedcross/internal/experiments"
	"fedcross/internal/fl"
	"fedcross/internal/models"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// workerVariants lists the worker counts a serial-vs-parallel benchmark
// sweeps: 1 and every core, without the second when it equals the first
// (a 1-CPU box would otherwise emit the same sub-benchmark twice).
func workerVariants() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// BenchmarkRoundParallel measures the worker-pool round engine: the same
// FedCross run at Parallelism=1 (the old strictly serial engine) and at
// every core. The runs produce bit-identical histories — the par row of
// internal/experiments' relations table — so the ratio of the two timings
// is pure speedup.
func BenchmarkRoundParallel(b *testing.B) {
	prof := experiments.TinyProfile()
	prof.Rounds = 4
	prof.EvalEvery = 0
	prof.NumClients = 16
	prof.ClientsPerRound = 8
	for _, workers := range workerVariants() {
		name := "serial"
		if workers > 1 {
			name = fmt.Sprintf("parallel-%d", workers)
		}
		b.Run(name, func(b *testing.B) {
			prof.Parallelism = workers
			env, err := prof.BuildEnv("vision10", "cnn", data.Heterogeneity{Beta: 0.5}, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				algo := core.MustNew(core.DefaultOptions())
				hist, err := fl.Run(algo, env, prof.Config(1))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(hist.Final().TestAcc, "final_acc")
				b.ReportMetric(float64(hist.TotalBytes())/float64(prof.Rounds), "wireB/round")
			}
		})
	}
}

// BenchmarkExperimentScheduler measures the experiment scheduler on a
// TableII smoke slice — six algorithms × two heterogeneity settings, the
// grid whose serial execution dominated the pre-scheduler wall-clock — at
// sequential cells (jobs-1) and at every core. Results are bit-identical
// (TestSchedulerDeterminism), so the timing ratio is pure grid-level
// speedup; tableII_smoke_s reports the wall-clock in seconds for the
// BENCH trajectory, and cpus records the cores the ratio was measured
// on (a 1-core box runs jobs-1 only).
func BenchmarkExperimentScheduler(b *testing.B) {
	for _, jobs := range workerVariants() {
		name := "jobs-1"
		if jobs > 1 {
			name = "jobs-all"
		}
		b.Run(name, func(b *testing.B) {
			prof := experiments.TinyProfile()
			prof.Rounds, prof.EvalEvery, prof.Jobs = 12, 4, jobs
			for i := 0; i < b.N; i++ {
				start := time.Now()
				g, err := experiments.GridPreset("table2", prof)
				if err != nil {
					b.Fatal(err)
				}
				res, err := experiments.RunGrid(g)
				if err != nil {
					b.Fatal(err)
				}
				if err := res.Render(io.Discard); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(time.Since(start).Seconds(), "tableII_smoke_s")
				b.ReportMetric(float64(runtime.NumCPU()), "cpus")
			}
		})
	}
}

// BenchmarkTransportCodecs measures the encode+decode cost of every wire
// codec on a model-sized payload and reports the bytes each one puts on
// the wire — the communication half of the perf trajectory, next to the
// alloc/ns numbers the compute path tracks.
func BenchmarkTransportCodecs(b *testing.B) {
	rng := tensor.NewRNG(1)
	vec := make(nn.ParamVector, 1<<16)
	for i := range vec {
		vec[i] = rng.Normal(0, 1)
	}
	for _, name := range []string{"identity", "fp16", "int8", "topk"} {
		codec, err := nn.CodecByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			buf := codec.Encode(nil, vec)
			dst := make(nn.ParamVector, len(vec))
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = codec.Encode(buf[:0], vec)
				if _, err := codec.Decode(dst, buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(codec.EncodedSize(len(vec))), "wireB/payload")
		})
	}
}

// BenchmarkSimilarityMatrix measures the tiled Gram pass against the
// naive K×(K−1) pairwise loop CoModelSel used to run per round (K uploads
// of 2^16 parameters).
func BenchmarkSimilarityMatrix(b *testing.B) {
	uploads := func(k, n int) []nn.ParamVector {
		rng := tensor.NewRNG(1)
		w := make([]nn.ParamVector, k)
		for i := range w {
			w[i] = make(nn.ParamVector, n)
			for j := range w[i] {
				w[i][j] = rng.Normal(0, 1)
			}
		}
		return w
	}
	const k = 10
	w := uploads(k, 1<<16)
	b.Run("gram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.NewSimMatrix(w, core.CosineMeasure(), fl.Workers{})
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for m := 0; m < k; m++ {
				_ = core.CoModelSel(core.LowestSimilarity, m, 0, w, core.CosineSimilarity)
			}
		}
	})
}

func BenchmarkLocalTrainingCNN(b *testing.B) {
	cfg := data.VisionConfig{
		Classes: 10, Features: models.VisionFeatures,
		TrainPerClass: 10, TestPerClass: 1,
		ModesPerClass: 2, Sep: 0.6, Noise: 0.8, Seed: 1,
	}
	train, _ := data.GenerateVision(cfg)
	factory := models.CNN(10)
	init := nn.FlattenParams(factory.New(tensor.NewRNG(1)).Params())
	rng := tensor.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := fl.TrainLocal(factory, train, fl.LocalSpec{
			Init: init, Epochs: 1, BatchSize: 25, LR: 0.03, Momentum: 0.5,
		}, rng.Split())
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectClients measures one round's uniform cohort draw at
// population scale (N=10^6, K=1000) as the public replay runs it:
// fl.CohortPlan round 0, i.e. three small RNG constructions plus one
// tensor.RNG.SampleV2, K draws. It allocates the cohort and a K-sized
// table, where Perm(n)[:k] allocated the population; CI gates its B/op,
// which is exact.
func BenchmarkSelectClients(b *testing.B) {
	const n, k = 1_000_000, 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := fl.CohortPlan(0, int64(i), n, k); len(got) != k {
			b.Fatalf("drew %d ids, want %d", len(got), k)
		}
	}
}
