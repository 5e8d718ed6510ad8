package baselines

import (
	"fmt"
	"math"

	"fedcross/internal/data"
	"fedcross/internal/fl"
	"fedcross/internal/models"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// FedGen's CPU-scale generator settings.
const (
	// genNoise is the generator's latent width, genHidden its hidden
	// width.
	genNoise, genHidden = 4, 16
	// Each round the server takes genSteps generator updates of genBatch
	// samples at learning rate genLR.
	genSteps, genBatch, genLR = 10, 16, 0.05
	// augmentPerClient generated samples are mixed into each client's
	// next local-training set.
	augmentPerClient = 16
)

// FedGen is a simplified reproduction of data-free knowledge distillation
// for heterogeneous FL (Zhu et al., ICML 2021). The server trains a
// label-conditioned generator against the ensemble of uploaded client
// models: generated samples must be classified as their conditioning label
// by the ensemble. Clients receive the generator alongside the global
// model and mix generated pseudo-samples into local training, importing
// knowledge about other clients' label regions without sharing data.
//
// Substitution note (README's "Fidelity notes" on the synthetic
// substitutes): the original generates in a feature
// space shared with split models; we generate directly in input space so
// the whole pipeline stays architecture-agnostic. Both variants exercise
// the same mechanism — server-side ensemble distillation plus client-side
// augmentation — and the same Table-I "Medium" communication profile.
type FedGen struct {
	server

	gen    *nn.Sequential
	genOpt *nn.SGD
	// clientGen is the client-side view of the generator: each round the
	// server's generator parameters cross the simulated wire and load into
	// this twin, and augmentation samples from it — so a lossy codec
	// degrades exactly what a real client would see. Its construction uses
	// a throwaway RNG (weights are overwritten every round), leaving the
	// algorithm's RNG streams untouched.
	clientGen *nn.Sequential
	genVec    nn.ParamVector // recycled flatten/decode buffer for the download
	classes   int
	feats     int
	// vocab is the token-id space of the federation's datasets (0 for
	// continuous features); generated samples must be discretised into it
	// before touching any Embedding layer.
	vocab int
}

// NewFedGen returns a FedGen instance.
func NewFedGen() *FedGen { return &FedGen{} }

// Name implements fl.Algorithm.
func (a *FedGen) Name() string { return "fedgen" }

// Category implements fl.Algorithm.
func (a *FedGen) Category() string { return "Knowledge Distillation" }

// Init creates the global model and the server-side generator.
func (a *FedGen) Init(env *fl.Env, cfg fl.Config, rng *tensor.RNG) error {
	a.init(env, cfg, rng)
	a.classes = env.Fed.Classes
	a.feats = env.Fed.Test.Features()
	a.vocab = env.Fed.Test.TokenVocab
	a.gen = nn.NewSequential(
		nn.NewLinear(a.classes+genNoise, genHidden, rng.Split()),
		nn.NewReLU(),
		nn.NewLinear(genHidden, a.feats, rng.Split()),
	)
	a.clientGen = nn.NewSequential(
		nn.NewLinear(a.classes+genNoise, genHidden, tensor.NewRNG(0)),
		nn.NewReLU(),
		nn.NewLinear(genHidden, a.feats, tensor.NewRNG(0)),
	)
	a.genVec = nn.FlattenParams(a.gen.Params())
	a.genOpt = nn.NewSGD(genLR, 0.5)
	return nil
}

// Round trains clients on generator-augmented shards, aggregates, then
// refreshes the generator against the new upload ensemble. Shard
// augmentation draws from the algorithm RNG, so it stays in the serial
// job-preparation loop (in selection order, interleaved with the RNG
// splits exactly as the serial engine drew them); only the training
// itself fans out over the worker pool.
//
// Both payloads cross the simulated wire: the global model and the
// generator are broadcast through the codec (augmentation samples from
// the decoded generator twin), and each upload returns delta-encoded
// against the model broadcast. Stragglers are excluded from aggregation
// and distillation alike.
func (a *FedGen) Round(r int, selected []int) error {
	tr := a.Transport()
	survivors := survivingTrainable(a.env, selected)
	recvGlobal := tr.Broadcast(wireDst(tr, &a.recvBuf, len(a.global)), survivors, a.global)
	nn.FlattenParamsInto(a.genVec, a.gen.Params())
	recvGen := tr.Broadcast(a.genVec, survivors, a.genVec)
	if err := nn.LoadParams(a.clientGen.Params(), recvGen); err != nil {
		return fmt.Errorf("baselines: fedgen round %d: generator download: %w", r, err)
	}
	outs := a.jobOuts(len(survivors))
	jobs := make([]fl.LocalJob, 0, len(survivors))
	for i, ci := range survivors {
		// Lease only while building the augmented copy, which owns its
		// storage.
		shard := a.env.Fed.LeaseShard(ci)
		aug := a.augmented(shard)
		a.env.Fed.ReleaseShard(ci)
		spec := a.cfg.LocalSpec()
		spec.Init, spec.Out = recvGlobal, outs[i]
		jobs = append(jobs, fl.LocalJob{Client: ci, Shard: aug, Spec: spec, RNG: a.rng.Split()})
	}
	results, err := fl.TrainAll(a.env, jobs, a.cfg.Allowance())
	if err != nil {
		return fmt.Errorf("baselines: fedgen round %d: %w", r, err)
	}
	uploads, weights, _ := uploadAll(tr, jobs, results, recvGlobal, a.cfg.Allowance())
	if len(uploads) == 0 {
		return nil
	}
	if a.cfg.BelowQuorum(len(uploads)) {
		return nil // degraded round: keep the global model and the generator
	}
	a.global, err = reduce(a.cfg, a.global, uploads, weights)
	if err != nil {
		return fmt.Errorf("baselines: fedgen round %d: %w", r, err)
	}
	a.trainGenerator(uploads)
	return nil
}

// augmented returns a copy of the client shard with augmentPerClient
// generator pseudo-samples mixed in (while the generator is untrained in
// round 0 the samples are just noise with correct labels, which slightly
// regularises). On token datasets the generator's continuous outputs are
// discretised to valid ids first — feeding them to an Embedding raw
// panics on the first negative or out-of-vocab value.
func (a *FedGen) augmented(shard *data.Dataset) *data.Dataset {
	const n = augmentPerClient
	xg, yg := a.generate(n)
	w := shard.Features()
	x := tensor.Zeros(shard.Len()+n, w)
	copy(x.Data, shard.X.Data)
	copy(x.Data[shard.Len()*w:], xg.Data)
	if shard.TokenVocab > 0 {
		quantizeTokens(x.Data[shard.Len()*w:], shard.TokenVocab)
	}
	y := make([]int, 0, shard.Len()+n)
	y = append(y, shard.Y...)
	y = append(y, yg...)
	return &data.Dataset{X: x, Y: y, Classes: shard.Classes, TokenVocab: shard.TokenVocab}
}

// quantizeTokens rounds generated features to the nearest token id and
// clamps them into [0, vocab) — the discrete sampler for the augmentation
// path. NaN (an untrained generator can emit anything) maps to id 0.
func quantizeTokens(vals []float64, vocab int) {
	max := float64(vocab - 1)
	for i, v := range vals {
		id := math.Round(v)
		if !(id >= 0) { // catches negatives and NaN
			id = 0
		} else if id > max {
			id = max
		}
		vals[i] = id
	}
}

// generate draws n conditioned samples from the client-side generator
// view (the wire-decoded twin loaded at the top of the round).
func (a *FedGen) generate(n int) (*tensor.Tensor, []int) {
	in := tensor.Zeros(n, a.classes+genNoise)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		y := a.rng.Intn(a.classes)
		labels[i] = y
		in.Data[i*(a.classes+genNoise)+y] = 1
		for z := 0; z < genNoise; z++ {
			in.Data[i*(a.classes+genNoise)+a.classes+z] = a.rng.Normal(0, 1)
		}
	}
	return a.clientGen.Forward(in), labels
}

// trainGenerator performs genSteps ensemble-distillation updates: the
// generated batch must be classified as its conditioning labels by every
// uploaded client model; the input-gradients of the ensemble loss flow
// back through the generator. On token datasets the pass is skipped
// outright: token ids are not differentiable (an Embedding's input
// gradient is identically zero), so distillation could never move the
// generator — text runs exercise the client-side augmentation only, with
// the generated features discretised by quantizeTokens.
func (a *FedGen) trainGenerator(uploads []nn.ParamVector) {
	if a.vocab > 0 {
		return
	}
	pool := models.Replicas(a.env.Model)
	rep := pool.Get()
	defer pool.Put(rep)
	teacher := rep.Net
	// The teacher's own gradients are never read here, but Backward
	// accumulates into them; clear them at lease time so the pooled
	// replica keeps the fresh-net invariant instead of growing garbage
	// across rounds.
	teacher.ZeroGrads()
	width := a.classes + genNoise
	for step := 0; step < genSteps; step++ {
		in := tensor.Zeros(genBatch, width)
		labels := make([]int, genBatch)
		for i := range labels {
			y := a.rng.Intn(a.classes)
			labels[i] = y
			in.Data[i*width+y] = 1
			for z := 0; z < genNoise; z++ {
				in.Data[i*width+a.classes+z] = a.rng.Normal(0, 1)
			}
		}
		out := a.gen.Forward(in)

		dx := tensor.Zeros(out.Shape...)
		for _, u := range uploads {
			if err := nn.LoadParams(teacher.Params(), u); err != nil {
				continue // architecture mismatch cannot happen in practice
			}
			logits := teacher.Forward(out)
			_, dlogits := nn.SoftmaxCrossEntropy(logits, labels)
			tensor.AddInPlace(dx, teacher.Backward(dlogits))
		}
		tensor.ScaleInPlace(dx, 1/float64(len(uploads)))

		a.gen.ZeroGrads()
		a.gen.BackwardParams(dx)
		a.genOpt.Step(a.gen.Params(), a.gen.Grads())
	}
}

// RoundComm implements fl.Algorithm: FedAvg traffic plus a generator
// download per client — the Table-I "Medium" row.
func (a *FedGen) RoundComm(k int) fl.CommProfile {
	return fl.CommProfile{ModelsDown: k, ModelsUp: k, GeneratorsDown: k}
}
