package fedcross

// The paper's evaluation (Section IV) as benchmarks: one sub-benchmark per
// grid preset of BenchmarkPaperGrids. Each runs its preset at the tiny
// profile and reports domain metrics (accuracy, sharpness) via
// b.ReportMetric alongside the usual ns/op. Run everything with:
//
//	go test -bench=. -benchmem
//
// The full-scale (slow) variants of the same artifacts run via
// cmd/fedsim -profile paper.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"fedcross/internal/core"
	"fedcross/internal/data"
	"fedcross/internal/experiments"
	"fedcross/internal/fl"
	"fedcross/internal/landscape"
	"fedcross/internal/models"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
	"fedcross/internal/theory"
)

// benchProfile returns the shared bench sizing: small enough that the
// whole suite finishes in minutes, large enough that learning is visible.
func benchProfile() experiments.Profile {
	p := experiments.TinyProfile()
	p.Rounds = 12
	p.EvalEvery = 4
	return p
}

// compareProfile sizes the benches that compare algorithms head-to-head
// (Tables II, Figure 5): long enough for aggregation quality to separate
// the methods. Where FedCross stands against each baseline at this length
// is the 50-round row of the claims ledger
// (internal/experiments/testdata/claims.json, README "Fidelity notes").
func compareProfile() experiments.Profile {
	p := experiments.TinyProfile()
	p.Rounds = 50
	p.EvalEvery = 10
	return p
}

// workerVariants lists the worker counts a serial-vs-parallel benchmark
// sweeps: 1 and every core, without the second when it equals the first
// (a 1-CPU box would otherwise emit the same sub-benchmark twice).
func workerVariants() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// BenchmarkPaperGrids runs the paper's grid presets — Tables II and III,
// Figs 4–9 and two ablations — one sub-benchmark each, reporting the mean
// final accuracy of the cells a row names, and the mean sharpness of a
// cell that reads it as the same name plus "_sharp". The fidelity row is
// the fidelity lane's and the claims ledger's, not a benchmark's.
func BenchmarkPaperGrids(b *testing.B) {
	for _, tc := range []struct {
		name, preset string
		profile      func() experiments.Profile
		sweeps       [][]string
		// metric names a cell's reported accuracy; nil reports nothing.
		metric func(c experiments.GridCell) string
	}{
		{"table2", "table2", compareProfile, nil,
			func(c experiments.GridCell) string { return c.Algorithm + "_" + c.Het.String() }},
		// Table II's LSTM rows (FedCross vs FedAvg to bound cost).
		{"table2-text", "table2", benchProfile, [][]string{{"dataset", "shakespeare", "sent140"}, {"algo", "fedavg", "fedcross"}},
			func(c experiments.GridCell) string { return c.Algorithm + "_" + c.Dataset }},
		// Shape: highest-similarity is the weakest column.
		{"table3", "table3", benchProfile, [][]string{{"alpha", "0.5", "0.9", "0.99"}}, nil},
		// Shape: FedCross sharpness lower.
		{"fig4", "fig4", benchProfile, nil,
			func(c experiments.GridCell) string { return c.Algorithm + "_" + c.Het.String() }},
		{"fig5", "fig5", compareProfile, [][]string{{"beta", "0.5"}}, nil},
		// Shape: accuracy rises with K then saturates.
		{"fig6", "fig6", benchProfile, nil,
			func(c experiments.GridCell) string { return c.Algorithm + "_K" + c.Coords[0] }},
		{"fig7", "fig7", benchProfile, nil, nil},
		{"fig8", "fig8", benchProfile, [][]string{{"alpha", "0.5", "0.99"}}, nil},
		{"fig9", "fig9", benchProfile, [][]string{{"beta", "0.1"}}, nil},
		{"ablation-shuffle", "ablation-shuffle", benchProfile, nil,
			func(c experiments.GridCell) string { return "shuffle_" + c.Coords[0] }},
		{"ablation-similarity", "ablation-similarity", benchProfile, nil, nil},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runPreset(b, tc.preset, tc.profile(), tc.sweeps...)
				for _, c := range res.Cells {
					if tc.metric != nil {
						b.ReportMetric(c.Stat().Mean, tc.metric(c))
						if c.Sharpness != nil {
							b.ReportMetric(experiments.NewStat(c.Sharpness).Mean, tc.metric(c)+"_sharp")
						}
					}
				}
			}
		})
	}
}

// runPreset runs and renders the named grid preset with the given sweeps
// (an axis name followed by its values).
func runPreset(b *testing.B, name string, p experiments.Profile, sweeps ...[]string) *experiments.GridResult {
	b.Helper()
	g, err := experiments.GridPreset(name, p)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range sweeps {
		if err := g.Sweep(s[0], s[1:]...); err != nil {
			b.Fatal(err)
		}
	}
	res, err := experiments.RunGrid(g)
	if err != nil {
		b.Fatal(err)
	}
	if err := res.Render(io.Discard); err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTheory_Bound exercises the Theorem-1 machinery: the quadratic
// federation run plus the bound evaluation.
func BenchmarkTheory_Bound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := tensor.NewRNG(1)
		q := theory.NewQuadraticFederation(8, 16, 1.0, rng)
		a := theory.Assumptions{L: 1, Mu: 1, E: 5, Gamma: q.Gamma(), Delta1: q.WStar.Dot(q.WStar)}
		res := q.RunFedCross(100, a.E, 0.9, a)
		a.G2 = res.MaxGradNorm2
		last := res.Gap[len(res.Gap)-1]
		b.ReportMetric(last, "final_gap")
		b.ReportMetric(a.Bound(100*a.E), "theorem1_bound")
	}
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
			for i := 0; i < b.N; i++ {
				prof := benchProfile()
				prof.Jobs = jobs
				start := time.Now()
				runPreset(b, "table2", prof)
				b.ReportMetric(time.Since(start).Seconds(), "tableII_smoke_s")
				b.ReportMetric(float64(runtime.NumCPU()), "cpus")
			}
		})
	}
}

// BenchmarkTransportCodecs measures the encode+decode cost of every wire
// codec on a model-sized payload and reports the bytes each one puts on
// the wire — the communication half of the perf trajectory, next to the
// alloc/ns numbers the compute path tracks. The topk-encode pair holds the
// codec's linear radix selection against the full-sort threshold it
// replaced, written out here; CI gates the pair as a same-process ratio.
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

	topk := nn.TopKCodec{Frac: 0.1}
	want := topk.Encode(nil, vec)
	b.Run("topk-encode/radix", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = topk.Encode(buf[:0], vec)
		}
		if !bytes.Equal(buf, want) {
			b.Fatal("radix encode moved")
		}
	})
	b.Run("topk-encode/sort", func(b *testing.B) {
		var buf []byte
		mags, sorted := make([]float64, len(vec)), make([]float64, len(vec))
		for i := 0; i < b.N; i++ {
			for j, v := range vec {
				mags[j] = math.Abs(v) // the payload has no NaN to order
			}
			copy(sorted, mags)
			slices.Sort(sorted)
			k := topk.Keep(len(vec))
			thresh := sorted[len(vec)-k]
			buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(len(vec)))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
			emit := func(j int) {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(j))
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(vec[j])))
				k--
			}
			for j, m := range mags {
				if k > 0 && m > thresh {
					emit(j)
				}
			}
			for j, m := range mags {
				if k > 0 && m == thresh {
					emit(j)
				}
			}
		}
		if !bytes.Equal(buf, want) {
			b.Fatal("the sort-threshold encode written out here is not the codec's payload")
		}
	})
}

// BenchmarkWireDeliver measures the int8 wire at server_heavy_k64's shape
// — 64 vectors of 51,978 parameters, each arriving as cold as in a round —
// down (no reference) and up (delta against a reference): one op is a
// whole batch, as the transport runs it (single-pass: DownAll / UpAll at
// Limit(1), the codec takes the reference, three fused kernels) and as it
// used to (five-pass: subtract into a residual, scan its range, quantise,
// dequantise, add the reference back — separate scalar passes, written
// out here over the kernels' Go twins). CI gates five-pass / single-pass
// per direction as a same-process ratio.
func BenchmarkWireDeliver(b *testing.B) {
	const k, n = 64, 51978
	w := newWireBatch(k, n)
	tr, err := fl.NewTransport(fl.TransportOptions{Codec: "int8"})
	if err != nil {
		b.Fatal(err)
	}
	ok := make([]bool, k)
	b.Run("down/single-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.DownAll(w.dsts, w.clients, w.vecs, fl.Limit(1))
		}
	})
	b.Run("up/single-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.UpAll(w.dsts, ok, w.clients, w.vecs, w.refs, fl.Limit(1))
		}
	})

	res, body := make(nn.ParamVector, n), make([]byte, n)
	fivePass := func(dst, vec, ref nn.ParamVector) {
		payload := vec
		if ref != nil {
			for i := range vec {
				res[i] = vec[i] - ref[i]
			}
			payload = res
		}
		lo, hi := tensor.DeltaRangeGo(payload, nil)
		scale := (hi - lo) / 255
		tensor.QuantDeltaGo(body, payload, nil, lo, scale)
		tensor.DequantAddGo(dst, body, nil, lo, scale)
		if ref != nil {
			for i := range dst {
				dst[i] += ref[i]
			}
		}
	}
	b.Run("down/five-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range w.vecs {
				fivePass(w.dsts[j], w.vecs[j], nil)
			}
		}
	})
	b.Run("up/five-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range w.vecs {
				fivePass(w.dsts[j], w.vecs[j], w.refs[j])
			}
		}
	})
}

// wireBatch is one round's worth of wire payloads: vecs[i] a small
// perturbation of refs[i], dsts[i] its own destination, clients the
// senders 0..k-1.
type wireBatch struct {
	clients          []int
	vecs, refs, dsts []nn.ParamVector
}

func newWireBatch(k, n int) wireBatch {
	rng := tensor.NewRNG(1)
	w := wireBatch{clients: make([]int, k), vecs: make([]nn.ParamVector, k), refs: make([]nn.ParamVector, k), dsts: make([]nn.ParamVector, k)}
	for i := range w.vecs {
		w.clients[i] = i
		w.vecs[i], w.refs[i] = make(nn.ParamVector, n), make(nn.ParamVector, n)
		for j := range w.vecs[i] {
			w.refs[i][j] = rng.Normal(0, 1)
			w.vecs[i][j] = w.refs[i][j] + 0.01*rng.Normal(0, 1)
		}
		w.dsts[i] = w.refs[i].Clone() // touched: no page faults on the clock
	}
	return w
}

// BenchmarkTransportRound measures one round of FedCross's wire at
// server_heavy_k64's shape — K = 64 dispatches of 51,978 parameters
// through DownAll, then the 64 trained vectors back through an in-place
// UpAll delta-encoded against what each client received — on the int8
// codec, at Limit(1) and Limit(2). The round's outcomes are decided
// serially either way and only the codec round trips fan out, so the two
// are bit-identical (TestTransportBatchWorkerInvariance) and CI gates
// workers-1 / workers-2 as a same-process ratio on boxes with two or more
// CPUs.
func BenchmarkTransportRound(b *testing.B) {
	const k, n = 64, 51978
	w := newWireBatch(k, n)
	ok := make([]bool, k)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			tr, err := fl.NewTransport(fl.TransportOptions{Codec: "int8"})
			if err != nil {
				b.Fatal(err)
			}
			params := make([]nn.ParamVector, k)
			for i := range params {
				params[i] = w.vecs[i].Clone()
			}
			round := func() {
				tr.DownAll(w.dsts, w.clients, w.refs, fl.Limit(workers))
				tr.UpAll(params, ok, w.clients, params, w.dsts, fl.Limit(workers))
			}
			round() // sizes the encode buffers and the round-trip queue
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// --- micro-benchmarks of the primitives the paper's loop is built from ---

func BenchmarkCrossAggr(b *testing.B) {
	rng := tensor.NewRNG(1)
	v := make(nn.ParamVector, 1<<16)
	w := make(nn.ParamVector, 1<<16)
	for i := range v {
		v[i] = rng.Normal(0, 1)
		w[i] = rng.Normal(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.CrossAggr(v, w, 0.99)
	}
}

func BenchmarkCosineSimilarity(b *testing.B) {
	rng := tensor.NewRNG(1)
	v := make(nn.ParamVector, 1<<16)
	w := make(nn.ParamVector, 1<<16)
	for i := range v {
		v[i] = rng.Normal(0, 1)
		w[i] = rng.Normal(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.CosineSimilarity(v, w)
	}
}

// BenchmarkSimilarityMatrix measures the tiled Gram pass against the
// naive K×(K−1) pairwise loop CoModelSel used to run per round (K uploads
// of 2^16 parameters), and — at server_heavy_k64's shape, K=64 uploads of
// 51,978 parameters — against the K norms plus K(K−1)/2 single Dot calls
// the pass used to be. CI gates the k64 pair as a same-process ratio.
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
	const k64 = 64
	w64 := uploads(k64, 51978)
	b.Run("k64/gram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.NewSimMatrix(w64, core.CosineMeasure(), fl.Workers{})
		}
	})
	b.Run("k64/pairwise-dots", func(b *testing.B) {
		fromDot := core.CosineMeasure().FromDot
		for i := 0; i < b.N; i++ {
			normsSq := make([]float64, k64)
			fl.ParallelForW(k64, fl.Workers{}, func(i int) { normsSq[i] = w64[i].NormSq() })
			s := make([]float64, k64*k64)
			fl.ParallelForW(k64*k64, fl.Workers{}, func(p int) {
				if i, j := p/k64, p%k64; i < j {
					s[p] = fromDot(w64[i].Dot(w64[j]), normsSq[i], normsSq[j])
				}
			})
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

// BenchmarkSGDStep measures one optimizer step over the MLPs of
// lazy_1m_fedavg (6,506 parameters) and server_heavy_k64 (51,978): kernel
// is nn.SGD.Step, whose momentum update runs on tensor.MomentumStep, and
// scalar the per-element loop it ran before, written out here over the
// same tensors. CI gates scalar/kernel as a same-process ratio; no ns/op
// is gated.
func BenchmarkSGDStep(b *testing.B) {
	for _, hidden := range []int{32, 256} {
		net := models.MLP(models.VisionFeatures, hidden, 10).New(tensor.NewRNG(1))
		params, grads := net.Params(), net.Grads()
		rng := tensor.NewRNG(2)
		for _, g := range grads {
			for j := range g.Data {
				g.Data[j] = rng.Normal(0, 1e-3)
			}
		}
		name := fmt.Sprintf("p%d", len(nn.FlattenParams(params)))
		lr, m := 0.01, 0.5
		opt := nn.NewSGD(lr, m)
		b.Run(name+"/kernel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt.Step(params, grads)
			}
		})
		velocity := make([][]float64, len(params))
		for i, p := range params {
			velocity[i] = make([]float64, len(p.Data))
		}
		b.Run(name+"/scalar", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for k, p := range params {
					g, v := grads[k], velocity[k]
					for j := range p.Data {
						v[j] = m*v[j] + g.Data[j]
						p.Data[j] -= lr * v[j]
					}
				}
			}
		})
	}
}

// BenchmarkServerFold measures the server folds on tensor's fold kernels
// against the scalar loops they replaced, written out here, at the
// benchmark's shapes: GlobalModelGen's mean of 64 × 51,978 and one
// cross-aggregation lerp of 51,978 (server_heavy_k64), and FedAvg's
// weighted mean of 10 × 6,506 behind ReduceUploads, whose scalar side
// screens every upload before folding (lazy_1m_fedavg). Each pair runs
// in this process back to back, so CI gates scalar/kernel as a ratio;
// setup fails unless both sides return the same bits.
func BenchmarkServerFold(b *testing.B) {
	rng := tensor.NewRNG(3)
	vectors := func(k, n int) []nn.ParamVector {
		vs := make([]nn.ParamVector, k)
		for i := range vs {
			vs[i] = make(nn.ParamVector, n)
			for j := range vs[i] {
				vs[i][j] = rng.Normal(0, 1)
			}
		}
		return vs
	}
	pair := func(name string, kernel, scalar func() nn.ParamVector) {
		if got, want := kernel(), scalar(); !slices.EqualFunc(got, want, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		}) {
			b.Fatalf("%s: kernel and scalar loop differ", name)
		}
		for _, side := range []struct {
			name string
			f    func() nn.ParamVector
		}{{"kernel", kernel}, {"scalar", scalar}} {
			b.Run(name+"/"+side.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					side.f()
				}
			})
		}
	}

	models64 := vectors(64, 51978)
	mean := make(nn.ParamVector, 51978)
	pair("mean-k64", func() nn.ParamVector {
		nn.MeanVectorsTo(mean, models64)
		return mean
	}, func() nn.ParamVector {
		copy(mean, models64[0])
		for _, v := range models64[1:] {
			for i := range mean {
				mean[i] += v[i]
			}
		}
		inv := 1 / float64(len(models64))
		for i := range mean {
			mean[i] *= inv
		}
		return mean
	})

	const alpha = 0.99
	lerp := make(nn.ParamVector, 51978)
	pair("lerp", func() nn.ParamVector {
		nn.LerpVectorsTo(lerp, models64[0], models64[1], alpha)
		return lerp
	}, func() nn.ParamVector {
		v, w, beta := models64[0], models64[1], 1-alpha
		for i := range lerp {
			lerp[i] = alpha*v[i] + beta*w[i]
		}
		return lerp
	})

	uploads := vectors(10, 6506)
	weights := make([]float64, len(uploads))
	for i := range weights {
		weights[i] = float64(1 + rng.Intn(40))
	}
	pair("reduce-k10", func() nn.ParamVector {
		out, err := fl.ReduceUploads(nil, uploads, weights)
		if err != nil {
			b.Fatal(err)
		}
		return out
	}, func() nn.ParamVector {
		for _, u := range uploads {
			for _, x := range u {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					b.Fatal("non-finite upload")
				}
			}
		}
		total := 0.0
		for _, w := range weights {
			total += w
		}
		out := make(nn.ParamVector, len(uploads[0]))
		for k, v := range uploads {
			w := weights[k] / total
			for i := range v {
				out[i] += w * v[i]
			}
		}
		return out
	})
}

// BenchmarkLinearGemm times the platform Gemm (the register-tiled AVX2
// kernels on amd64) against its GoBackend twin at the Linear layers'
// shapes: the CNN head's six GEMMs at batch 50 (sync_cnn_noniid,
// async_faulted_ckpt) and the five the 192-256-10 MLP runs on a
// ten-sample batch (server_heavy_k64; its first layer forms no input
// gradient). Names read model/layer-pass/side; the gradient passes
// accumulate, as Linear's do. Both sides run in this process back to
// back, so CI gates go/platform per model as a ratio of summed ns/op;
// setup fails unless both return the same bits.
func BenchmarkLinearGemm(b *testing.B) {
	rng := tensor.NewRNG(9)
	for _, c := range []struct {
		name           string
		m, k, n        int
		transA, transB bool
	}{
		{"cnn/fc1-fwd", 50, 64, 32, false, false},
		{"cnn/fc1-dw", 64, 50, 32, true, false},
		{"cnn/fc1-dx", 50, 32, 64, false, true},
		{"cnn/fc2-fwd", 50, 32, 10, false, false},
		{"cnn/fc2-dw", 32, 50, 10, true, false},
		{"cnn/fc2-dx", 50, 10, 32, false, true},
		{"mlp/fc1-fwd", 10, 192, 256, false, false},
		{"mlp/fc1-dw", 192, 10, 256, true, false},
		{"mlp/fc2-fwd", 10, 256, 10, false, false},
		{"mlp/fc2-dw", 256, 10, 10, true, false},
		{"mlp/fc2-dx", 10, 10, 256, false, true},
	} {
		a := rng.Uniform(-1, 1, c.m*c.k).Data
		bm := rng.Uniform(-1, 1, c.k*c.n).Data
		acc := c.transA
		gemm := func(be tensor.Backend, dst []float64) []float64 {
			be.Gemm(dst, a, bm, c.m, c.k, c.n, c.transA, c.transB, acc)
			return dst
		}
		if got, want := gemm(tensor.CurrentBackend(), make([]float64, c.m*c.n)), gemm(tensor.GoBackend{}, make([]float64, c.m*c.n)); !slices.EqualFunc(got, want, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		}) {
			b.Fatalf("%s: platform and go Gemm differ", c.name)
		}
		for _, side := range []struct {
			name string
			be   tensor.Backend
		}{{"platform", tensor.CurrentBackend()}, {"go", tensor.GoBackend{}}} {
			dst := make([]float64, c.m*c.n)
			b.Run(c.name+"/"+side.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					gemm(side.be, dst)
				}
			})
		}
	}
}

// BenchmarkConvStep measures a training step's share of one convolution —
// forward plus parameter gradients, batch 50 — at the CNN's two
// geometries: nn.Conv2D's float32 direct kernels, conversions included,
// against the float64 per-sample lowering they are bounded against
// (Im2ColTo, the forward GEMM and the bias add, one transposed-B GEMM and
// a serial row sum per sample), written out here. The lowered GEMMs run on
// tensor.GoBackend, not the platform Gemm, so the reference does not speed
// up when the Linear layers' kernels do, and under purego both halves are
// scalar. CI gates direct against lowered as a same-process ratio: a
// tripwire for a kernel falling back to its scalar twin, not a record of
// what replacing the fused whole-batch lowering gained.
//
// Two more pairs ride along, gated the same way. input-grad is conv2's
// input gradient alone: direct is Backward less the BackwardParams it
// begins with (timed inside the loop, reported as ns/op), lowered the
// per-sample transposed-A GEMM (on GoBackend too) + Col2ImTo. relu-pool is
// a forward and a backward pass through the CNN's two pool stages, batch
// 50: folded is nn.NewReLUMaxPool2D, layers the ReLU and MaxPool2D it
// stands for.
func BenchmarkConvStep(b *testing.B) {
	const batch = 50
	var gemm tensor.GoBackend
	rng := tensor.NewRNG(1)
	type layer struct {
		conv    *nn.Conv2D
		x, grad *tensor.Tensor
	}
	var layers []layer
	for _, c := range []struct{ inC, side, outC int }{{models.VisionC, models.VisionH, 8}, {8, models.VisionH / 2, 16}} {
		g := tensor.ConvGeom{InC: c.inC, InH: c.side, InW: c.side, KH: 3, KW: 3, Stride: 1, Pad: 1}
		conv := nn.NewConv2D(g, c.outC, rng)
		layers = append(layers, layer{conv, rng.Randn(1, batch, conv.InFeatures()), rng.Randn(1, batch, conv.OutFeatures())})
	}
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, l := range layers {
				l.conv.Forward(l.x)
				l.conv.BackwardParams(l.grad)
			}
		}
	})
	b.Run("lowered", func(b *testing.B) {
		type scratch struct{ cols, y, out, dW, dB *tensor.Tensor }
		ws := make([]scratch, len(layers))
		for i, l := range layers {
			g, outC := l.conv.Geom, l.conv.OutC
			rows, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
			ws[i] = scratch{tensor.Zeros(rows, spatial), tensor.Zeros(outC, spatial), tensor.Zeros(batch, outC*spatial), tensor.Zeros(outC, rows), tensor.Zeros(outC)}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for li, l := range layers {
				g, outC, w := l.conv.Geom, l.conv.OutC, ws[li]
				rows, spatial, inLen := g.InC*g.KH*g.KW, g.OutH()*g.OutW(), l.conv.InFeatures()
				for s := 0; s < batch; s++ {
					tensor.Im2ColTo(w.cols, tensor.New(l.x.Data[s*inLen:(s+1)*inLen], g.InC, g.InH, g.InW), g)
					gemm.Gemm(w.y.Data, l.conv.W.Data, w.cols.Data, outC, rows, spatial, false, false, false)
					dy := tensor.New(l.grad.Data[s*outC*spatial:(s+1)*outC*spatial], outC, spatial)
					for oc := 0; oc < outC; oc++ {
						sum := 0.0
						for j := 0; j < spatial; j++ {
							w.out.Data[(s*outC+oc)*spatial+j] = w.y.Data[oc*spatial+j] + l.conv.B.Data[oc]
							sum += dy.Data[oc*spatial+j]
						}
						w.dB.Data[oc] += sum
					}
					gemm.Gemm(w.dW.Data, dy.Data, w.cols.Data, outC, spatial, rows, false, true, true)
				}
			}
		}
	})

	b.Run("input-grad", func(b *testing.B) {
		l := layers[1]
		g, outC := l.conv.Geom, l.conv.OutC
		spatial, inLen := g.OutH()*g.OutW(), l.conv.InFeatures()
		b.Run("direct", func(b *testing.B) {
			l.conv.Forward(l.x)
			var d time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				l.conv.Backward(l.grad)
				t1 := time.Now()
				l.conv.BackwardParams(l.grad)
				d += t1.Sub(t0) - time.Since(t1)
			}
			b.ReportMetric(float64(d.Nanoseconds())/float64(b.N), "ns/op")
		})
		b.Run("lowered", func(b *testing.B) {
			dcols := tensor.Zeros(g.InC*g.KH*g.KW, spatial)
			dx := tensor.Zeros(batch, inLen)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s := 0; s < batch; s++ {
					dy := tensor.New(l.grad.Data[s*outC*spatial:(s+1)*outC*spatial], outC, spatial)
					gemm.Gemm(dcols.Data, l.conv.W.Data, dy.Data, g.InC*g.KH*g.KW, outC, spatial, true, false, false)
					tensor.Col2ImTo(tensor.New(dx.Data[s*inLen:(s+1)*inLen], g.InC, g.InH, g.InW), dcols, g)
				}
			}
		})
	})

	b.Run("relu-pool", func(b *testing.B) {
		type stage struct {
			folded, pool *nn.MaxPool2D
			relu         *nn.ReLU
			x, grad      *tensor.Tensor
		}
		var stages []stage
		for _, c := range []struct{ ch, side int }{{8, models.VisionH}, {16, models.VisionH / 2}} {
			folded := nn.NewReLUMaxPool2D(c.ch, c.side, c.side, 2)
			stages = append(stages, stage{folded, nn.NewMaxPool2D(c.ch, c.side, c.side, 2), nn.NewReLU(),
				rng.Randn(1, batch, folded.InFeatures()), rng.Randn(1, batch, folded.OutFeatures())})
		}
		b.Run("folded", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, s := range stages {
					s.folded.Forward(s.x)
					s.folded.Backward(s.grad)
				}
			}
		})
		b.Run("layers", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, s := range stages {
					s.pool.Forward(s.relu.Forward(s.x))
					s.relu.Backward(s.pool.Backward(s.grad))
				}
			}
		})
	})
}

// BenchmarkReducers measures every aggregation rule on a cohort of 10
// model-sized uploads (2^16 parameters) — the server-side cost a robust
// rule adds over the plain mean. The rank-based rules (trimmed mean,
// median) pay a per-coordinate sort; Krum pays a fused K×K distance
// matrix plus score sort, Multi-Krum the same matrix plus a selected
// mean.
func BenchmarkReducers(b *testing.B) {
	rng := tensor.NewRNG(1)
	const k = 10
	ups := make([]nn.ParamVector, k)
	for i := range ups {
		ups[i] = make(nn.ParamVector, 1<<16)
		for j := range ups[i] {
			ups[i][j] = rng.Normal(0, 1)
		}
	}
	for _, name := range []string{"mean", "trimmed:0.25", "median", "krum", "multikrum"} {
		r, err := core.ReducerByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fl.ReduceUploads(r, ups, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTreeReduce measures the server's aggregation fold at
// cohort sizes from the legacy serial regime (K=64, single leaf group)
// up to the tree regime (K=1024, 16 groups combined pairwise), serial vs
// every core. The tree shape is fixed by K alone — results are
// bit-identical at every fan-out (TestTreeMeanFanoutInvariance) — so the
// timing ratio is pure aggregation speedup.
func BenchmarkTreeReduce(b *testing.B) {
	rng := tensor.NewRNG(1)
	const dim = 1 << 16
	for _, k := range []int{64, 256, 1024} {
		ups := make([]nn.ParamVector, k)
		ws := make([]float64, k)
		for i := range ups {
			ups[i] = make(nn.ParamVector, dim)
			for j := range ups[i] {
				ups[i][j] = rng.Normal(0, 1)
			}
			ws[i] = float64(1 + rng.Intn(40))
		}
		for _, workers := range workerVariants() {
			b.Run(fmt.Sprintf("k%d-w%d", k, workers), func(b *testing.B) {
				r := fl.MeanReducer{}
				r.SetWorkers(fl.Limit(workers))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := fl.ReduceUploads(&r, ups, ws); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkLazyShardSynthesis measures the virtual-client path: leasing
// shards from a Lazy source sized so every lease is a cache miss
// (synthesis + eviction, the steady state of a huge-N round) versus the
// all-hits regime, reporting shards/s.
func BenchmarkLazyShardSynthesis(b *testing.B) {
	cfg := data.VisionConfig{
		Classes: 10, Features: models.VisionFeatures,
		TrainPerClass: 100, TestPerClass: 1,
		ModesPerClass: 2, Sep: 0.6, Noise: 0.8, Seed: 1,
	}
	train, _ := data.GenerateVision(cfg)
	const n = 500
	cases := []struct {
		name     string
		capacity int
	}{
		{"miss", 8}, // capacity ≪ clients: every lease synthesizes
		{"hit", n},  // capacity ≥ clients: steady-state cache hits
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			asg := data.AssignDirichlet(train.Y, train.Classes, n, 0.5, tensor.NewRNG(2))
			src := data.NewLazy(train, asg, bc.capacity)
			start := time.Now()
			leases := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for ci := 0; ci < n; ci++ {
					if src.Size(ci) == 0 {
						continue
					}
					src.Shard(ci)
					src.Release(ci)
					leases++
				}
			}
			b.ReportMetric(float64(leases)/time.Since(start).Seconds(), "shards/s")
			b.ReportMetric(float64(src.Resident()), "resident")
		})
	}
}

// singleMutexLazy replicates the pre-striping lease path the sharded
// cache replaced — one mutex over the whole cache, row synthesis under
// that lock, and an O(resident) eviction scan — as the frozen baseline
// for BenchmarkLazyShardSynthesisParallel. The CI perf gate holds the
// striped path at ≥3× this implementation under contention.
type singleMutexLazy struct {
	mu       sync.Mutex
	base     *data.Dataset
	asg      *data.Assignment
	capacity int
	cache    map[int]*smShard
	tick     uint64
}

type smShard struct {
	ds     *data.Dataset
	leases int
	used   uint64
}

func (l *singleMutexLazy) Shard(id int) *data.Dataset {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e, ok := l.cache[id]; ok {
		l.tick++
		e.leases++
		e.used = l.tick
		return e.ds
	}
	ds := l.base.Subset(l.asg.Rows(id)) // synthesized under the global lock
	for len(l.cache) >= l.capacity {
		victim, best := -1, uint64(0)
		for cid, e := range l.cache {
			if e.leases > 0 {
				continue
			}
			if victim < 0 || e.used < best {
				victim, best = cid, e.used
			}
		}
		if victim < 0 {
			break
		}
		delete(l.cache, victim)
	}
	l.tick++
	l.cache[id] = &smShard{ds: ds, leases: 1, used: l.tick}
	return ds
}

func (l *singleMutexLazy) Release(id int) {
	l.mu.Lock()
	l.cache[id].leases--
	l.mu.Unlock()
}

// BenchmarkLazyShardSynthesisParallel is the contended lease path at
// huge-K scale: NumCPU workers lease/release a K=4096 population through
// a 512-slot cache (every lease a miss-plus-evict, the steady state of a
// million-client round), baseline single-mutex vs the ID-sharded cache
// at 64 stripes. Striping wins twice: synthesis runs outside the lock
// (parallel across cores) and the eviction scan shrinks from O(resident)
// to O(resident/stripes). Reports shards/s; CI gates striped ≥3×
// baseline.
func BenchmarkLazyShardSynthesisParallel(b *testing.B) {
	cfg := data.VisionConfig{
		Classes: 10, Features: models.VisionFeatures,
		TrainPerClass: 100, TestPerClass: 1,
		ModesPerClass: 2, Sep: 0.6, Noise: 0.8, Seed: 1,
	}
	train, _ := data.GenerateVision(cfg)
	const n = 4096
	const capacity = 512
	asg := data.AssignDirichlet(train.Y, train.Classes, n, 0.5, tensor.NewRNG(2))
	var ids []int
	for ci := 0; ci < n; ci++ {
		if asg.Size(ci) > 0 {
			ids = append(ids, ci)
		}
	}
	workers := runtime.NumCPU()
	hammer := func(b *testing.B, shard func(int) *data.Dataset, release func(int)) {
		start := time.Now()
		leases := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Stride so each worker sweeps every stripe and
					// same-id collisions across workers are routine.
					for j := w; j < len(ids); j += workers {
						ci := ids[j]
						shard(ci)
						release(ci)
					}
				}(w)
			}
			wg.Wait()
			leases += len(ids)
		}
		b.ReportMetric(float64(leases)/time.Since(start).Seconds(), "shards/s")
	}
	b.Run("baseline", func(b *testing.B) {
		src := &singleMutexLazy{base: train, asg: asg, capacity: capacity, cache: map[int]*smShard{}}
		hammer(b, src.Shard, src.Release)
	})
	b.Run("striped", func(b *testing.B) {
		src := data.NewLazyStriped(train, asg, capacity, 64)
		hammer(b, src.Shard, src.Release)
		if src.Outstanding() != 0 {
			b.Fatalf("%d leases outstanding after bench", src.Outstanding())
		}
	})
}

// BenchmarkLazyShardPrefetchOverlap measures the lease phase a round
// actually waits on: cold (every shard synthesized at lease time — the
// serial prepare phase of a huge-K round) vs warmed (the cohort handed
// to the background pool beforehand, as the engines do with
// PrefetchRounds > 0, so leases are pure cache hits). Per-iteration
// setup and the warm-up itself run off the clock; the gap is the
// wall-clock a training round no longer spends preparing shards.
func BenchmarkLazyShardPrefetchOverlap(b *testing.B) {
	cfg := data.VisionConfig{
		Classes: 10, Features: models.VisionFeatures,
		TrainPerClass: 100, TestPerClass: 1,
		ModesPerClass: 2, Sep: 0.6, Noise: 0.8, Seed: 1,
	}
	train, _ := data.GenerateVision(cfg)
	const n = 1024
	asg := data.AssignDirichlet(train.Y, train.Classes, n, 0.5, tensor.NewRNG(2))
	var ids []int
	for ci := 0; ci < n; ci++ {
		if asg.Size(ci) > 0 {
			ids = append(ids, ci)
		}
	}
	leasePhase := func(src *data.Lazy) {
		for _, ci := range ids {
			src.Shard(ci)
			src.Release(ci)
		}
	}
	for _, warmed := range []bool{false, true} {
		name := "cold"
		if warmed {
			name = "warmed"
		}
		b.Run(name, func(b *testing.B) {
			start := time.Duration(0)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				src := data.NewLazy(train, asg, n)
				if warmed {
					src.Prefetch(ids)
					src.WaitPrefetch()
				}
				b.StartTimer()
				t0 := time.Now()
				leasePhase(src)
				start += time.Since(t0)
			}
			b.ReportMetric(float64(b.N*len(ids))/start.Seconds(), "shards/s")
		})
	}
}

// BenchmarkFig7_MillionClients pins the paper's Figure-7 axis at its
// target scale: one Fig-7 cell with N=10^6 virtual clients, 100
// activated per round (the participation cap), shards synthesized on
// lease.
func BenchmarkFig7_MillionClients(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := experiments.TinyProfile()
		p.Rounds = 1
		p.EvalEvery = 0
		res := runPreset(b, "fig7", p, []string{"n", "1000000"}, []string{"algo", "fedavg"})
		if k := res.Cells[0].Profile.ClientsPerRound; k != 100 {
			b.Fatalf("K = %d, want the 100-client cap", k)
		}
	}
}

// BenchmarkSelectClients measures one round's uniform cohort draw at
// population scale (N=10^6, K=1000). "sample" is the engine's selection
// as the public replay runs it — fl.CohortPlan round 0, i.e. three small
// RNG constructions plus one tensor.RNG.SampleV2, K draws — and allocates
// the cohort and a K-sized table; "perm" is math/rand's Perm(n)[:k],
// called here directly as the in-process reference (no engine path keeps
// it): N draws, and it allocates the population. CI gates sample's B/op,
// which is exact, and perm/sample, a same-process ratio; no ns/op is
// gated.
func BenchmarkSelectClients(b *testing.B) {
	const n, k = 1_000_000, 1000
	b.Run("perm", func(b *testing.B) {
		b.ReportAllocs()
		rng := tensor.NewRNG(1)
		for i := 0; i < b.N; i++ {
			if got := rng.Perm(n)[:k]; len(got) != k {
				b.Fatalf("drew %d ids, want %d", len(got), k)
			}
		}
	})
	b.Run("sample", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := fl.CohortPlan(0, int64(i), n, k); len(got) != k {
				b.Fatalf("drew %d ids, want %d", len(got), k)
			}
		}
	})
}

// BenchmarkDirichletInto measures one class's Dir(0.5) draw over 10^6
// clients, the unit a population-scale partition build repeats per
// class. "ring" is tensor.RNG.DirichletInto, whose Gamma draws run four
// at a time straight from the generator's ring (AVX2 lanes); "scalar" is
// its twin DirichletIntoGo, one draw at a time from the ring; "mathrand"
// is the sampler as it was before either, the Marsaglia–Tsang body over
// rand.Rand and math/rand's own source (dirichletMathRand). Setup asserts
// all three produce the same bits. CI gates scalar/ring and
// mathrand/ring, same-process ratios; no ns/op is gated.
func BenchmarkDirichletInto(b *testing.B) {
	const n, beta = 1_000_000, 0.5
	p, q, s := make([]float64, n), make([]float64, n), make([]float64, n)
	tensor.NewRNG(1).DirichletInto(p, beta)
	tensor.NewRNG(1).DirichletIntoGo(s, beta)
	dirichletMathRand(rand.New(rand.NewSource(1)), q, beta)
	for i := range p {
		if math.Float64bits(p[i]) != math.Float64bits(q[i]) || math.Float64bits(s[i]) != math.Float64bits(q[i]) {
			b.Fatalf("entry %d: ring %v, scalar %v, mathrand %v", i, p[i], s[i], q[i])
		}
	}
	b.Run("ring", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.NewRNG(int64(i)).DirichletInto(p, beta)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.NewRNG(int64(i)).DirichletIntoGo(s, beta)
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dirichletMathRand(rand.New(rand.NewSource(int64(i))), q, beta)
		}
	})
}

// dirichletMathRand is tensor.RNG.DirichletInto as it was before Gamma
// read the ring: the same draws through rand.Rand's Float64 and
// NormFloat64, d and c recomputed per draw (internal/tensor's exactness
// test keeps the same body as its oracle).
func dirichletMathRand(r *rand.Rand, p []float64, alpha float64) {
	var gamma func(shape float64) float64
	gamma = func(shape float64) float64 {
		if shape < 1 {
			u := r.Float64()
			for u == 0 {
				u = r.Float64()
			}
			x := gamma(shape + 1)
			if e := 1 / shape; e != 2 {
				return x * math.Pow(u, e)
			}
			return x * (u * u)
		}
		d := shape - 1.0/3.0
		c := 1 / math.Sqrt(9*d)
		for {
			x := r.NormFloat64()
			v := 1 + c*x
			if v <= 0 {
				continue
			}
			v = v * v * v
			u := r.Float64()
			if u < 1-0.0331*x*x*x*x {
				return d * v
			}
			if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
				return d * v
			}
		}
	}
	sum := 0.0
	for i := range p {
		p[i] = gamma(alpha)
		sum += p[i]
	}
	if sum == 0 {
		p[r.Intn(len(p))] = 1
		return
	}
	for i := range p {
		p[i] /= sum
	}
}

// BenchmarkAsyncRound measures the buffered-async (FedBuff) engine end to
// end at the tiny profile: 12 buffered commits per iteration, reporting
// model-arrival throughput — the async counterpart of the sync engine's
// BenchmarkRoundParallel. Runs are bit-identical at every fan-out (the
// relations table's par row), so serial vs parallel timing is pure
// speedup.
func BenchmarkAsyncRound(b *testing.B) {
	prof := experiments.TinyProfile()
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
			opts := fl.AsyncOptions{Buffer: 4, InFlight: 8, Commits: 12}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				hist, err := fl.RunAsync(env, prof.Config(1), opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(hist.Comm.ModelsUp)/time.Since(start).Seconds(), "arrivals/s")
				b.ReportMetric(hist.Final().TestAcc, "final_acc")
			}
		})
	}
}

func BenchmarkLandscapeScan(b *testing.B) {
	cfg := data.VisionConfig{
		Classes: 4, Features: 16,
		TrainPerClass: 10, TestPerClass: 8,
		ModesPerClass: 1, Sep: 1, Noise: 0.3, Seed: 1,
	}
	_, test := data.GenerateVision(cfg)
	factory := models.MLP(16, 8, 4)
	vec := nn.FlattenParams(factory.New(tensor.NewRNG(1)).Params())
	opts := landscape.Options{Resolution: 5, Radius: 0.3, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := landscape.Scan2D(factory, vec, test, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultedRound measures the round engine under the full fault
// mix — crashes, wire drops/truncation/corruption, duplicates, retries
// and a quorum — against the identical benign configuration. The
// faulted/benign ns/op ratio is the injection overhead (the plan is a
// pure hash, so it should be noise), and the fault telemetry lands as
// domain metrics for the BENCH trajectory.
func BenchmarkFaultedRound(b *testing.B) {
	prof := experiments.TinyProfile()
	prof.Rounds = 4
	prof.EvalEvery = 0
	prof.NumClients = 16
	prof.ClientsPerRound = 8
	prof.Parallelism = runtime.NumCPU()
	cases := []struct {
		name   string
		faults fl.FaultOptions
	}{
		{"benign", fl.FaultOptions{}},
		{"faulted", fl.FaultOptions{
			CrashRate: 0.1, DropRate: 0.1, TruncateRate: 0.05,
			CorruptRate: 0.05, DuplicateRate: 0.05, StraggleRate: 0.1,
		}},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			prof.Faults = bc.faults
			prof.MinUploads = 2
			prof.Retries = 2
			prof.RetryBackoffSec = 0.05
			env, err := prof.BuildEnv("vision10", "cnn", data.Heterogeneity{Beta: 0.5}, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hist, err := fl.Run(core.MustNew(core.DefaultOptions()), env, prof.Config(1))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(hist.Crashes+hist.FaultDrops)/float64(prof.Rounds), "faults/round")
				b.ReportMetric(float64(hist.Retries)/float64(prof.Rounds), "retries/round")
			}
		})
	}
}

// BenchmarkCheckpointRoundTrip measures the crash-safety tax: a run
// killed at its final round boundary (training + write-ahead snapshot)
// and the resume leg that reloads the snapshot and reconstructs the
// byte-identical history. snapshot_kb records the on-disk footprint of
// the full engine state — model, algorithm tensors, RNG positions,
// transport counters and metric history.
func BenchmarkCheckpointRoundTrip(b *testing.B) {
	prof := experiments.TinyProfile()
	prof.Rounds = 2
	prof.EvalEvery = 0
	prof.NumClients = 16
	prof.ClientsPerRound = 8
	env, err := prof.BuildEnv("vision10", "cnn", data.Heterogeneity{Beta: 0.5}, 1)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := filepath.Join(dir, fmt.Sprintf("bench-%d.ckpt", i))
		killed := prof.Config(1)
		killed.Checkpoint = fl.CheckpointOptions{Path: path, StopAfterRound: prof.Rounds}
		if _, err := fl.Run(core.MustNew(core.DefaultOptions()), env, killed); !errors.Is(err, fl.ErrStopped) {
			b.Fatal(err)
		}
		resumed := prof.Config(1)
		resumed.Checkpoint = fl.CheckpointOptions{Path: path, Resume: true}
		if _, err := fl.Run(core.MustNew(core.DefaultOptions()), env, resumed); err != nil {
			b.Fatal(err)
		}
		if fi, err := os.Stat(path); err == nil {
			b.ReportMetric(float64(fi.Size())/1024, "snapshot_kb")
		}
	}
}
