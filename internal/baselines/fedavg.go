// Package baselines implements the five comparison methods of the paper's
// evaluation: FedAvg (classic), FedProx and SCAFFOLD (global control
// variable methods), FedGen (knowledge distillation) and CluSamp (client
// grouping). All satisfy fl.Algorithm and run against the same
// environments as FedCross.
package baselines

import (
	"errors"
	"fmt"

	"fedcross/internal/fl"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// FedAvg is the classic one-to-multi scheme: dispatch the global model to
// K clients, train locally, and average the uploads weighted by local
// sample counts (McMahan et al., 2017).
type FedAvg struct {
	server
	recvBuf nn.ParamVector // recycled broadcast-decode destination
}

// NewFedAvg returns a FedAvg instance.
func NewFedAvg() *FedAvg { return &FedAvg{} }

// Name implements fl.Algorithm.
func (a *FedAvg) Name() string { return "fedavg" }

// Category implements fl.Algorithm.
func (a *FedAvg) Category() string { return "Classic" }

// Init creates the initial global model.
func (a *FedAvg) Init(env *fl.Env, cfg fl.Config, rng *tensor.RNG) error {
	a.init(env, cfg, rng)
	return nil
}

// Round trains the selected clients from the global model and averages.
func (a *FedAvg) Round(r int, selected []int) error {
	return a.round("fedavg", r, selected, a.cfg.LocalSpec())
}

// round is the FedAvg round with spec as every client's job template
// (the shared hyper-parameters; FedProx adds its proximal term).
func (a *FedAvg) round(name string, r int, selected []int, spec fl.LocalSpec) error {
	uploads, weights, _, _, err := trainSelected(a.env, a.cfg, a.rng, a.Transport(), &a.recvBuf, a.global, selected, spec)
	if err != nil {
		return fmt.Errorf("baselines: %s round %d: %w", name, r, err)
	}
	if len(uploads) == 0 {
		return nil // every client dropped; keep the current global model
	}
	a.global, err = reduce(a.cfg, a.global, uploads, weights)
	if err != nil {
		return fmt.Errorf("baselines: %s round %d: %w", name, r, err)
	}
	return nil
}

// reduce routes a round's server-side aggregation through the configured
// fl.Reducer (nil is the weighted mean: nil ≡ "mean", relations row
// reducer). When the non-finite screen drops every upload the current
// model survives unchanged — a fully poisoned round behaves like a fully
// dropped one.
// A configured quorum (Config.MinUploads) degrades the round the same
// way: below it, the server keeps its current model rather than folding
// a thin cohort.
func reduce(cfg fl.Config, cur nn.ParamVector, uploads []nn.ParamVector, weights []float64) (nn.ParamVector, error) {
	if cfg.BelowQuorum(len(uploads)) {
		return cur, nil
	}
	agg, err := fl.ReduceUploads(cfg.Reducer, uploads, weights)
	if errors.Is(err, fl.ErrNoFiniteUploads) {
		return cur, nil
	}
	if err != nil {
		return nil, err
	}
	return agg, nil
}

// RoundComm implements fl.Algorithm: K models down, K models up.
func (a *FedAvg) RoundComm(k int) fl.CommProfile {
	return fl.CommProfile{ModelsDown: k, ModelsUp: k}
}

// trainSelected runs local training from init on every surviving selected
// client, routed through the simulated transport: the dispatched model is
// broadcast through the codec (clients train on the wire-visible decoded
// vector), and each upload travels back delta-encoded against that
// broadcast — a straggler whose upload misses the round deadline is
// excluded like a crashed client. spec is every job's template — the shared
// hyper-parameters (Config.LocalSpec) plus the algorithm's hooks; a
// FedProx template with Prox > 0 gets the received broadcast as its
// proximal anchor, and the loop fills in Init. Training fans
// out over the worker pool; RNG splits and every wire outcome are
// decided serially in selection order (only the uploads' codec round
// trips fan out, inside the transport), so results do not depend on the
// worker count.
//
// It returns the server-visible uploads, their sample-count weights, the
// uploading clients (aligned with uploads), and the client-visible
// broadcast vector.
func trainSelected(env *fl.Env, cfg fl.Config, rng *tensor.RNG, tr *fl.Transport, recvBuf *nn.ParamVector, init nn.ParamVector, selected []int, spec fl.LocalSpec) (uploads []nn.ParamVector, weights []float64, clients []int, recv nn.ParamVector, err error) {
	survivors := survivingTrainable(env, selected)
	recv = tr.Broadcast(wireDst(tr, recvBuf, len(init)), survivors, init)
	if spec.Prox > 0 {
		spec.ProxRef = recv // clients anchor on what they received
	}
	spec.Init = recv
	jobs := selectedJobs(rng, survivors, spec)
	results, err := fl.TrainAll(env, jobs, cfg.Allowance())
	if err != nil {
		return nil, nil, nil, nil, err
	}
	uploads, weights, clients = uploadAll(tr, jobs, results, recv, cfg.Allowance())
	return uploads, weights, clients, recv, nil
}

// uploadAll sends every job's trained parameters back through the wire,
// delta-encoded against the round's broadcast ref and decoded in place,
// and returns the server-visible uploads that arrived, in job order, with
// their sample-count weights and their clients. A straggler's or a lost
// upload is dropped: the server never saw it.
func uploadAll(tr *fl.Transport, jobs []fl.LocalJob, results []fl.LocalResult, ref nn.ParamVector, w fl.Workers) (uploads []nn.ParamVector, weights []float64, clients []int) {
	n := len(results)
	uploads, clients = make([]nn.ParamVector, n), make([]int, n)
	refs, ok := make([]nn.ParamVector, n), make([]bool, n)
	for j, res := range results {
		uploads[j], clients[j], refs[j] = res.Params, jobs[j].Client, ref
	}
	tr.UpAll(uploads, ok, clients, uploads, refs, w)
	weights = make([]float64, 0, n)
	arrived := 0
	for j, res := range results {
		if ok[j] {
			uploads[arrived], clients[arrived] = uploads[j], clients[j]
			weights = append(weights, float64(res.Samples))
			arrived++
		}
	}
	return uploads[:arrived], weights, clients[:arrived]
}

// surviving filters the dropped (-1) slots out of a selection.
func surviving(selected []int) []int {
	out := make([]int, 0, len(selected))
	for _, ci := range selected {
		if ci >= 0 {
			out = append(out, ci)
		}
	}
	return out
}

// survivingTrainable additionally drops clients without training data.
// Only virtualized federations report untrainable clients (at
// million-client scale empty shards are expected, not exceptional);
// eager federations report every client trainable, so an empty eager
// shard still fails training.
func survivingTrainable(env *fl.Env, selected []int) []int {
	out := make([]int, 0, len(selected))
	for _, ci := range selected {
		if ci >= 0 && env.Fed.Trainable(ci) {
			out = append(out, ci)
		}
	}
	return out
}

// wireDst returns an algorithm-owned decode destination of length n for
// a lossy transport, recycling (and resizing) *buf across rounds — or
// nil on the pass-through wire, which never touches destinations.
func wireDst(tr *fl.Transport, buf *nn.ParamVector, n int) nn.ParamVector {
	if tr.PassThrough() {
		return nil
	}
	if len(*buf) != n {
		*buf = make(nn.ParamVector, n)
	}
	return *buf
}

// selectedJobs builds the per-client job list for the surviving selected
// clients: every job trains under spec, with one RNG split per job drawn
// in selection order.
func selectedJobs(rng *tensor.RNG, selected []int, spec fl.LocalSpec) []fl.LocalJob {
	survivors := surviving(selected)
	rngs := rng.SplitN(len(survivors))
	jobs := make([]fl.LocalJob, len(survivors))
	for i, ci := range survivors {
		jobs[i] = fl.LocalJob{Client: ci, Spec: spec, RNG: rngs[i]}
	}
	return jobs
}
