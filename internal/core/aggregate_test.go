package core

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"fedcross/internal/data"
	"fedcross/internal/fl"
	"fedcross/internal/models"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// bitsEqual reports whether a and b hold the same float64 bits.
func bitsEqual(a, b nn.ParamVector) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// referenceAggregate is the per-model arithmetic aggregate's span pass
// must reproduce: each next model by nn.LerpVectorsTo against its
// collaborative model (or propellerAggrTo over whole vectors), then
// GlobalModelGen over the next list.
func referenceAggregate(f *FedCross, r int, uploads []nn.ParamVector) (next []nn.ParamVector, mean nn.ParamVector) {
	k, n := len(uploads), len(uploads[0])
	alpha := f.effectiveAlpha(r)
	next = make([]nn.ParamVector, k)
	var gram *SimMatrix
	if !f.propellerActive(r) && f.opts.Strategy != InOrder {
		gram = NewSimMatrix(uploads, f.opts.Similarity, fl.Limit(1))
	}
	for i := range next {
		next[i] = make(nn.ParamVector, n)
		switch {
		case f.propellerActive(r):
			var props []nn.ParamVector
			for step := 0; step < min(f.opts.PropellerCount, k-1); step++ {
				props = append(props, uploads[CoModelSel(InOrder, i, r+step, uploads, nil)])
			}
			propellerAggrTo(next[i], uploads[i], props, alpha)
		case gram != nil:
			nn.LerpVectorsTo(next[i], uploads[i], uploads[CoModelSelMatrix(f.opts.Strategy, i, r, gram)], alpha)
		default:
			nn.LerpVectorsTo(next[i], uploads[i], uploads[CoModelSel(InOrder, i, r, uploads, nil)], alpha)
		}
	}
	return next, GlobalModelGen(next)
}

// plantedUploads draws k normal vectors of length n and plants NaNs with
// distinct payloads and signs, ±Inf and −0 at span edges and in the tail.
func plantedUploads(rng *tensor.RNG, k, n int) []nn.ParamVector {
	special := []float64{
		math.Float64frombits(0x7ff8_0000_0000_0abc), math.Float64frombits(0xfff8_0000_0000_0123),
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
	}
	spots := []int{0, spanLen - 1, spanLen, spanLen + 1, n / 2, n - 1}
	uploads := make([]nn.ParamVector, k)
	for i := range uploads {
		uploads[i] = randVec(rng, n)
		if i%3 == 0 {
			continue // some uploads stay finite, so some columns do too
		}
		for j, at := range spots {
			if at < n && (i+j)%2 == 0 {
				uploads[i][at] = special[(i+j)%len(special)]
			}
		}
	}
	return uploads
}

// TestAggregateSpanPassMatchesReference holds aggregate's span pass to the
// per-model lerps and GlobalModelGen bit for bit — the next middleware
// models and Global() — across worker counts, strategies, acceleration
// windows, K, and lengths around the span width, with non-finite and −0
// uploads.
func TestAggregateSpanPassMatchesReference(t *testing.T) {
	type mode struct {
		name     string
		strategy Strategy
		accel    AccelMode
	}
	modes := []mode{
		{"lowest", LowestSimilarity, AccelNone},
		{"highest", HighestSimilarity, AccelNone},
		{"in-order", InOrder, AccelNone},
		{"pm", LowestSimilarity, AccelPropeller},
		{"da", LowestSimilarity, AccelDynamicAlpha},
		{"pm-da", LowestSimilarity, AccelBoth},
	}
	const rounds = 5 // the windows are 4 rounds: PM, DA and PM-DA all switch inside
	// server_heavy_k64's length, or under the race detector, whose
	// instrumented scalar loops take a minute over it, five spans.
	long := 51978
	if raceEnabled {
		long = 4*spanLen + 5
	}
	rng := tensor.NewRNG(11)
	for _, k := range []int{2, 3, 10, 64} {
		for _, n := range []int{1, spanLen - 1, spanLen, spanLen + 1, long} {
			if k == 64 && n != long && n != spanLen+1 {
				continue // K = 64 covers one span plus a tail and the long length
			}
			uploads := make([][]nn.ParamVector, rounds)
			for r := range uploads {
				uploads[r] = plantedUploads(rng, k, n)
			}
			for _, m := range modes {
				for _, workers := range []int{1, 2, 8} {
					t.Run(fmt.Sprintf("k%d/n%d/%s/w%d", k, n, m.name, workers), func(t *testing.T) {
						opts := DefaultOptions()
						opts.Strategy, opts.Accel, opts.AccelRounds, opts.PropellerCount = m.strategy, m.accel, 4, 3
						f := MustNew(opts)
						// Evaluated every other round: the pass folds the mean
						// on odd rounds, Global computes it on even ones.
						f.cfg = fl.Config{Parallelism: workers, EvalEvery: 2}
						f.middleware = make([]nn.ParamVector, k) // aggregate only moves it to spare
						for i := range f.middleware {
							f.middleware[i] = make(nn.ParamVector, n)
						}
						for r := range rounds {
							wantNext, wantMean := referenceAggregate(f, r, uploads[r])
							f.middleware = f.aggregate(r, uploads[r])
							for i := range wantNext {
								if !bitsEqual(f.middleware[i], wantNext[i]) {
									t.Fatalf("round %d: next model %d differs from the per-model arithmetic", r, i)
								}
							}
							if !bitsEqual(f.Global(), wantMean) {
								t.Fatalf("round %d: Global() differs from GlobalModelGen", r)
							}
						}
					})
				}
			}
		}
	}
	t.Run("lifecycle", testGlobalLifecycle)
}

// lifecycleEnv is a small federation whose MLP (12-256-4, 4,356
// parameters) spans five columns of aggregate's pass.
func lifecycleEnv() *fl.Env {
	cfg := data.VisionConfig{
		Classes: 4, Features: 12,
		TrainPerClass: 40, TestPerClass: 10,
		ModesPerClass: 2, Sep: 1.2, Noise: 0.35, Seed: 5,
	}
	fed := data.BuildVision(cfg, 12, data.Heterogeneity{Beta: 0.5}, 6)
	return &fl.Env{Fed: fed, Model: models.MLP(12, 256, 4)}
}

// roundProbe runs a hook around every FedCross round of a real run.
type roundProbe struct {
	*FedCross
	before func(r int)
	after  func(r int, err error)
}

func (p roundProbe) Round(r int, selected []int) error {
	p.before(r)
	err := p.FedCross.Round(r, selected)
	p.after(r, err)
	return err
}

// testGlobalLifecycle holds Global() to GlobalModelGen of the current
// middleware list, bit for bit, through a faulted federation: after Init,
// after every round (some below quorum) and after LoadState. With a
// Reducer set the pass folds no mean and Global() stays the reducer's
// fusion.
func testGlobalLifecycle(t *testing.T) {
	env := lifecycleEnv()
	for _, reducer := range []string{"", "median"} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/w%d", reducer, workers), func(t *testing.T) {
				cfg := fl.Config{
					Rounds: 6, ClientsPerRound: 6, LocalEpochs: 1, BatchSize: 16,
					LR: 0.05, Momentum: 0.5, Seed: 7, Parallelism: workers,
					Transport:  fl.TransportOptions{Codec: "int8"},
					Faults:     fl.FaultOptions{CrashRate: 0.4},
					MinUploads: 4,
				}
				if reducer != "" {
					red, err := fl.ReducerByName(reducer)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Reducer = red
				}
				want := func(f *FedCross) nn.ParamVector {
					if cfg.Reducer == nil {
						return GlobalModelGen(f.middleware)
					}
					agg, err := fl.ReduceUploads(cfg.Reducer, f.middleware, nil)
					if err != nil {
						t.Fatal(err)
					}
					return agg
				}
				f := MustNew(DefaultOptions())
				var early []byte // f's state after round 0
				check := func(when string) {
					t.Helper()
					if !bitsEqual(f.Global(), want(f)) {
						t.Fatalf("%s: Global() differs from the fusion of the middleware", when)
					}
					if cfg.Reducer != nil && f.mean != nil {
						t.Fatalf("%s: a Reducer is set, yet the pass folded a mean", when)
					}
				}
				probe := roundProbe{FedCross: f,
					before: func(r int) {
						if r == 0 {
							check("after Init")
						}
					},
					after: func(r int, err error) {
						if err != nil {
							t.Fatal(err)
						}
						check(fmt.Sprintf("after round %d", r))
						if r == 0 {
							early = saved(t, f)
						}
					}}
				hist, err := fl.Run(probe, env, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if hist.Degraded == 0 || hist.Degraded == cfg.Rounds {
					t.Fatalf("%d of %d rounds below quorum: the run must hold both kinds", hist.Degraded, cfg.Rounds)
				}
				if cfg.Reducer == nil && f.mean == nil {
					t.Fatal("no round folded the deployment mean")
				}
				f.Global()[0] = math.NaN() // a caller's copy, not the folded mean
				check("after writing to a Global() result")
				// Back to the state of the first round: the folded mean belongs
				// to the last one, so Global() must compute the mean itself.
				if err := f.LoadState(bytes.NewReader(early)); err != nil {
					t.Fatal(err)
				}
				check("after LoadState")
			})
		}
	}
}

// addrs returns the address of every vector's first element.
func addrs(vs []nn.ParamVector) []*float64 {
	out := make([]*float64, len(vs))
	for i, v := range vs {
		out[i] = &v[0]
	}
	return out
}

// bigAllocs reads from the memory profile how many objects of at least
// size bytes the process has allocated; MemProfileRate must be 1. The
// collection publishes every allocation made so far.
func bigAllocs(size int64) int64 {
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	var count int64
	for _, r := range recs[:n] {
		if r.AllocObjects > 0 && r.AllocBytes/r.AllocObjects >= size {
			count += r.AllocObjects
		}
	}
	return count
}

// TestFedCrossThreeSets: on a lossy wire a federation holds three sets of
// K parameter vectors. The spare set receives the decoded dispatches and
// then the cross-aggregation, sharing storage with no middleware vector
// or upload while the wire runs; a steady-state round allocates no
// parameter-sized vector; and the whole federation stays under three sets
// plus its deployment vectors, where the four sets the dispatches once
// had of their own do not fit.
func TestFedCrossThreeSets(t *testing.T) {
	const k = 64
	vcfg := data.VisionConfig{
		Classes: 4, Features: 64,
		TrainPerClass: 80, TestPerClass: 10,
		ModesPerClass: 2, Sep: 1.2, Noise: 0.35, Seed: 5,
	}
	// An MLP of 35,332 parameters (64-512-4): a set is 18 MB, so what is
	// not a set — models, RNG splits, batches — stays a small share, and
	// four-sample batches keep every activation under 32 KiB.
	env := &fl.Env{Fed: data.BuildVision(vcfg, 80, data.Heterogeneity{Beta: 0.5}, 6), Model: models.MLP(64, 512, 4)}
	cfg := fl.Config{
		Rounds: 4, ClientsPerRound: k, LocalEpochs: 1, BatchSize: 4,
		LR: 0.05, Seed: 9, Parallelism: 1, EvalEvery: 2,
		Transport: fl.TransportOptions{Codec: "int8", Retries: 1},
		Faults:    fl.FaultOptions{DropRate: 0.1, TruncateRate: 0.1, CorruptRate: 0.1},
	}
	// In-order co-models: the similarity strategies' Gram tiles are
	// K²-sized scratch of their own, not parameter vectors.
	opts := DefaultOptions()
	opts.Strategy = InOrder
	f := MustNew(opts)
	var (
		mid, spare, up []*float64 // the round's sets as it starts
		mean           *float64   // the folded mean's storage as round 2 starts
		steady         int64      // parameter-sized objects the steady rounds allocated
		ms             runtime.MemStats
	)
	// Every allocation is profiled, so a steady round's parameter-sized
	// objects can be counted. The trainer's tensors are per layer, each
	// smaller than the flattened vector.
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	vec := int64(len(nn.FlattenParams(env.Model.New(tensor.NewRNG(1)).Params()))) * 8
	probe := roundProbe{FedCross: f,
		before: func(r int) {
			mid, spare, up = addrs(f.middleware), nil, nil
			if r > 0 {
				spare, up = addrs(f.spare), addrs(f.uploadBuf)
			}
			// Rounds 1 and 3 are evaluated and fold the mean; the steady
			// window is rounds 2 and 3, whose Global copies come after it.
			if r == 2 {
				mean = &f.meanBuf[0]
				steady -= bigAllocs(vec)
			}
		},
		after: func(r int, err error) {
			if r == 2 && f.mean != nil {
				t.Fatal("round 2 is not evaluated, yet the pass folded the mean")
			}
			if r == cfg.Rounds-1 {
				steady += bigAllocs(vec)
				if f.mean == nil || &f.mean[0] != mean {
					t.Fatal("the folded mean was reallocated")
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			// The dispatch set became the next middleware list: no new set.
			dispatch := addrs(f.middleware)
			if r > 0 && !slices.Equal(dispatch, spare) {
				t.Fatalf("round %d: the next middleware list is not the set that received the dispatches", r)
			}
			if !slices.Equal(addrs(f.spare), mid) {
				t.Fatalf("round %d: the spare set is not the round's old middleware", r)
			}
			for _, d := range dispatch {
				if slices.Contains(mid, d) || slices.Contains(addrs(f.uploadBuf), d) {
					t.Fatalf("round %d: a dispatch destination shares storage with a middleware vector or an upload", r)
				}
			}
			if r > 0 && !slices.Equal(addrs(f.uploadBuf), up) {
				t.Fatalf("round %d: the upload set was reallocated", r)
			}
		}}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	start := ms.TotalAlloc
	hist, err := fl.Run(probe, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	total := ms.TotalAlloc - start
	if hist.Retries == 0 {
		t.Fatal("the faulted wire retried no upload")
	}
	if steady != 0 {
		t.Errorf("the steady-state rounds allocated %d parameter-sized objects", steady)
	}
	// The deployment vectors are Init's flattened initial model, the
	// folded mean and one Global() copy an evaluation. Everything else a
	// run allocates (the models and replicas, RNG splits, the Gram tiles,
	// batches, the wire's buffers) is held under half a set, so a fourth
	// set cannot fit.
	set := uint64(k * vec)
	bound := 3*set + uint64((2+len(hist.Metrics))*int(vec)) + set/2
	t.Logf("the federation allocated %.2f sets; the bound is %.2f", float64(total)/float64(set), float64(bound)/float64(set))
	if 4*set < bound {
		t.Fatal("the bound admits four sets")
	}
	if total >= bound && !raceEnabled {
		t.Errorf("the federation allocated %d B (%.2f sets); the bound is %.2f sets", total, float64(total)/float64(set), float64(bound)/float64(set))
	}
}

// TestPassThroughDispatchesMiddleware: the lossless wire hands each client
// the middleware vector itself, so no dispatch set is allocated — a round
// that degrades leaves the spare set unmade.
func TestPassThroughDispatchesMiddleware(t *testing.T) {
	cfg := fl.Config{
		Rounds: 1, ClientsPerRound: 6, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Seed: 9, MinUploads: 1,
		Faults: fl.FaultOptions{CrashRate: 1}, // a quorum no round meets
	}
	f := MustNew(DefaultOptions())
	hist, err := fl.Run(f, lifecycleEnv(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Degraded != 1 || f.spare != nil {
		t.Fatalf("degraded %d, spare set %v: want one degraded round and no dispatch set", hist.Degraded, f.spare != nil)
	}
}
