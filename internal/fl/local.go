package fl

import (
	"fmt"

	"fedcross/internal/data"
	"fedcross/internal/models"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// LocalSpec describes one client-side training job. The two optional
// fields are the hooks the baseline algorithms need: Prox/ProxRef realise
// FedProx's proximal term µ/2·‖w−w_g‖², and GradCorrection realises
// SCAFFOLD's per-step drift correction (c − c_i), added to every gradient.
type LocalSpec struct {
	// Init is the parameter vector to start from (copied, not mutated).
	Init nn.ParamVector
	// Epochs, BatchSize, LR, Momentum configure the local SGD loop.
	Epochs, BatchSize int
	LR, Momentum      float64
	// Prox is FedProx's µ; 0 disables the proximal term.
	Prox float64
	// ProxRef is the anchor for the proximal term (usually Init).
	ProxRef nn.ParamVector
	// GradCorrection, when non-nil, is added to the gradient at every
	// step (flat, aligned with the parameter vector).
	GradCorrection nn.ParamVector
	// Out, when non-nil, is the caller-owned destination for
	// LocalResult.Params (it must have exactly Init's length). Algorithms
	// that recycle upload buffers across rounds (FedCross) set it so the
	// steady-state round allocates no parameter-sized vectors; when nil,
	// TrainLocal allocates a fresh vector.
	Out nn.ParamVector
}

// LocalResult reports what a client training job produced.
type LocalResult struct {
	// Params is the trained parameter vector.
	Params nn.ParamVector
	// Steps is the number of SGD steps taken (SCAFFOLD's K).
	Steps int
	// MeanLoss is the average training loss over all steps.
	MeanLoss float64
	// Samples is the client's shard size (FedAvg weighting).
	Samples int
}

// TrainLocal runs one client's local training: it leases a long-lived
// replica of the architecture from the process-wide pool, loads spec.Init
// over its weights, and runs spec.Epochs epochs of mini-batch SGD on
// shard. It returns the trained parameters; spec.Init is never mutated.
//
// The replica lease is invisible to callers: weights and optimizer state
// are fully reset, the job RNG is consumed only by batch shuffling (never
// by construction), and the result is bit-identical whether the pool hit
// or missed.
func TrainLocal(factory models.Factory, shard *data.Dataset, spec LocalSpec, rng *tensor.RNG) (LocalResult, error) {
	switch {
	case shard.Len() == 0:
		return LocalResult{}, fmt.Errorf("fl: TrainLocal: empty shard")
	case spec.LR <= 0:
		return LocalResult{}, fmt.Errorf("fl: TrainLocal: learning rate %v must be positive", spec.LR)
	case spec.Prox > 0 && len(spec.ProxRef) != len(spec.Init):
		return LocalResult{}, fmt.Errorf("fl: TrainLocal: prox ref length %d != init %d", len(spec.ProxRef), len(spec.Init))
	case spec.GradCorrection != nil && len(spec.GradCorrection) != len(spec.Init):
		return LocalResult{}, fmt.Errorf("fl: TrainLocal: correction length %d != init %d", len(spec.GradCorrection), len(spec.Init))
	case spec.Out != nil && len(spec.Out) != len(spec.Init):
		return LocalResult{}, fmt.Errorf("fl: TrainLocal: out length %d != init %d", len(spec.Out), len(spec.Init))
	}
	pool := models.Replicas(factory)
	rep := pool.Get()
	defer pool.Put(rep)
	net := rep.Net
	if err := nn.LoadParams(net.Params(), spec.Init); err != nil {
		return LocalResult{}, fmt.Errorf("fl: TrainLocal: %w", err)
	}
	rep.Reset(spec.LR, spec.Momentum)

	params := net.Params()
	grads := net.Grads()
	opt := rep.Opt
	steps := 0
	lossSum := 0.0

	// dlogits is the loss-gradient scratch, leased from the arena for the
	// whole call and resized per batch, so the steady-state SGD loop does
	// no allocation.
	var dlogits *tensor.Tensor
	defer func() { tensor.PutScratch(dlogits) }()

	for epoch := 0; epoch < spec.Epochs; epoch++ {
		shard.Batches(rng, spec.BatchSize, func(x *tensor.Tensor, y []int) {
			net.ZeroGrads()
			logits := net.Forward(x, true)
			if dlogits == nil {
				dlogits = tensor.GetScratch(logits.Shape...)
			}
			dlogits = tensor.Ensure(dlogits, logits.Shape...)
			loss := nn.SoftmaxCrossEntropyInto(dlogits, logits, y)
			net.BackwardParams(dlogits) // the data batch's gradient has no reader
			applyHooks(params, grads, spec)
			opt.Step(params, grads)
			steps++
			lossSum += loss
		})
	}

	out := spec.Out
	if out == nil {
		out = make(nn.ParamVector, len(spec.Init))
	}
	res := LocalResult{
		Params:  nn.FlattenParamsInto(out, params),
		Steps:   steps,
		Samples: shard.Len(),
	}
	if steps > 0 {
		res.MeanLoss = lossSum / float64(steps)
	}
	return res, nil
}

// applyHooks adds the proximal and correction terms to the gradient
// tensors, walking them with a running flat offset so the flat reference
// vectors stay aligned with the tensor layout.
func applyHooks(params, grads []*tensor.Tensor, spec LocalSpec) {
	if spec.Prox == 0 && spec.GradCorrection == nil {
		return
	}
	off := 0
	for i, p := range params {
		g := grads[i]
		n := p.Len()
		if spec.Prox > 0 {
			ref := spec.ProxRef[off : off+n]
			for j := 0; j < n; j++ {
				g.Data[j] += spec.Prox * (p.Data[j] - ref[j])
			}
		}
		if spec.GradCorrection != nil {
			corr := spec.GradCorrection[off : off+n]
			for j := 0; j < n; j++ {
				g.Data[j] += corr[j]
			}
		}
		off += n
	}
}

// Evaluate computes test accuracy and mean loss of the parameter vector on
// ds, batching for memory locality. Batches are evaluated across the
// allowance w (Workers{} means every core, unbudgeted — matching the old
// workers=0 convention; Limit(n) caps the fan-out; a Budget leases the
// fan-out from a shared pool); the per-batch partial sums are reduced in
// batch order, so the result is bit-identical at every worker count.
func Evaluate(factory models.Factory, vec nn.ParamVector, ds *data.Dataset, batchSize int, w Workers) (acc, loss float64, err error) {
	return evaluate(factory, vec, ds, batchSize, w)
}

// evaluate is Evaluate's engine. Forward passes mutate layer activations,
// so each worker leases its own replica from the architecture pool,
// loaded with vec once and reused for every batch that worker claims. The
// replica count must match the dispatch fan-out exactly, so the worker
// allowance (including any budget lease) is resolved here, before the
// replicas are taken, and the dispatch below runs at that fixed count.
func evaluate(factory models.Factory, vec nn.ParamVector, ds *data.Dataset, batchSize int, w Workers) (acc, loss float64, err error) {
	if ds.Len() == 0 {
		return 0, 0, fmt.Errorf("fl: Evaluate: empty dataset")
	}
	if batchSize <= 0 {
		batchSize = 64
	}
	n := ds.Len()
	feat := ds.Features()
	numBatches := (n + batchSize - 1) / batchSize
	workers, leased := w.lease(numBatches)
	defer w.Budget.ReleaseN(leased)

	pool := models.Replicas(factory)
	reps := make([]*models.Replica, workers)
	defer func() {
		for _, r := range reps {
			pool.Put(r) // Put tolerates the nils of an early return
		}
	}()
	for i := range reps {
		reps[i] = pool.Get()
		if err := nn.LoadParams(reps[i].Net.Params(), vec); err != nil {
			return 0, 0, fmt.Errorf("fl: Evaluate: %w", err)
		}
	}

	accW := make([]float64, numBatches)
	lossW := make([]float64, numBatches)
	idxBufs := make([][]int, workers)
	yBufs := make([][]int, workers)
	for i := range idxBufs {
		idxBufs[i] = make([]int, batchSize)
		yBufs[i] = make([]int, batchSize)
	}
	parallelForErr(numBatches, Limit(workers), nil, func(w, b int) error {
		start := b * batchSize
		end := start + batchSize
		if end > n {
			end = n
		}
		idx := idxBufs[w][:end-start]
		for i := range idx {
			idx[i] = start + i
		}
		y := yBufs[w][:end-start]
		x := tensor.GetScratch(end-start, feat)
		defer tensor.PutScratch(x)
		ds.BatchInto(x, y, idx)
		logits := reps[w].Net.Forward(x, false)
		l := nn.SoftmaxCrossEntropyLoss(logits, y)
		a := nn.Accuracy(logits, y)
		weight := float64(len(y))
		accW[b] = a * weight
		lossW[b] = l * weight
		return nil
	})
	correctWeighted := 0.0
	lossWeighted := 0.0
	for b := 0; b < numBatches; b++ {
		correctWeighted += accW[b]
		lossWeighted += lossW[b]
	}
	return correctWeighted / float64(n), lossWeighted / float64(n), nil
}
