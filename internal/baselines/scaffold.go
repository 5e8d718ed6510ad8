package baselines

import (
	"errors"
	"fmt"

	"fedcross/internal/fl"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// SCAFFOLD corrects client drift with control variates (Karimireddy et
// al., ICML 2020). The server keeps a global variate c and each client a
// local variate cᵢ; every local SGD step adds (c − cᵢ) to the gradient.
// After training, clients refresh cᵢ with the option-II rule
// cᵢ⁺ = cᵢ − c + (x − yᵢ)/(S·η) and the server folds the deltas into x
// and c. Both the model and the variate travel each way, which is why
// Table I classes its communication overhead as High.
//
// Local steps are plain SGD, whatever momentum the run configures. Option
// II is derived for plain SGD: under heavy-ball momentum m a step moves
// about η/(1−m)·g, so the refresh overstates the variate, and the
// overstated correction feeds back through the momentum buffer. At the
// tiny profile's m = 0.5 that sent 8 of 15 runs (seeds 1–5, 400 rounds,
// β = 0.1, 0.5, IID) to a NaN model; scaling option II by (1−m) instead
// still lost 4 of 15, plain SGD none.
type SCAFFOLD struct {
	server
	c nn.ParamVector // server control variate
	// ci holds per-client control variates, keyed by client id and
	// allocated on first participation — a map rather than a dense slice,
	// so state stays O(participants) even for 10^6-client populations.
	ci map[int]nn.ParamVector
	// recvGlobalBuf / recvCBuf are the recycled broadcast-decode
	// destinations for the two downlink payloads.
	recvGlobalBuf, recvCBuf nn.ParamVector
}

// NewSCAFFOLD returns a SCAFFOLD instance.
func NewSCAFFOLD() *SCAFFOLD { return &SCAFFOLD{} }

// Name implements fl.Algorithm.
func (a *SCAFFOLD) Name() string { return "scaffold" }

// Category implements fl.Algorithm.
func (a *SCAFFOLD) Category() string { return "Global Control Variable" }

// Init creates the global model and zero control variates.
func (a *SCAFFOLD) Init(env *fl.Env, cfg fl.Config, rng *tensor.RNG) error {
	a.init(env, cfg, rng)
	a.c = make(nn.ParamVector, len(a.global))
	a.ci = make(map[int]nn.ParamVector)
	return nil
}

// Round implements the SCAFFOLD round with server step size 1. Local
// training fans out over the worker pool: the per-client corrections and
// RNG splits are prepared serially from the pre-round state (c and the cᵢ
// only change in the reduce below), then the variate refreshes fold back
// in selection order.
//
// Both the model and the variate cross the simulated wire in each
// direction: clients train from (and drift-correct against) the decoded
// broadcasts, and each upload travels delta-encoded against the state the
// server already holds — the round's model broadcast for yᵢ, the stored
// cᵢ for the variate, which both endpoints keep wire-visible so delta
// references never diverge. A straggler loses its whole contribution
// (neither fold nor cᵢ refresh), exactly as a server that stopped
// waiting.
func (a *SCAFFOLD) Round(r int, selected []int) error {
	n := len(a.global)
	tr := a.Transport()
	survivors := survivingTrainable(a.env, selected)
	recvGlobal := tr.Broadcast(wireDst(tr, &a.recvGlobalBuf, n), survivors, a.global)
	recvC := tr.Broadcast(wireDst(tr, &a.recvCBuf, n), survivors, a.c)
	jobs := make([]fl.LocalJob, 0, len(survivors))
	for _, ci := range survivors {
		if a.ci[ci] == nil {
			a.ci[ci] = make(nn.ParamVector, n)
		}
		spec := a.cfg.LocalSpec()
		spec.Init, spec.GradCorrection, spec.Momentum = recvGlobal, recvC.Sub(a.ci[ci]), 0
		jobs = append(jobs, fl.LocalJob{Client: ci, Spec: spec, RNG: a.rng.Split()})
	}
	results, err := fl.TrainAll(a.env, jobs, a.cfg.Allowance())
	if err != nil {
		return fmt.Errorf("baselines: scaffold round %d: %w", r, err)
	}

	var modelDeltaSum, variateDeltaSum nn.ParamVector
	var models []nn.ParamVector // reducer path: the server-visible uploads
	// Variate refreshes are collected and applied only after the round
	// commits: a below-quorum (degraded) round must leave every cᵢ — not
	// just x and c — exactly as it found them. Clients are distinct
	// within a round, so deferring the map writes changes no arithmetic.
	pendingClients := make([]int, 0, len(results))
	pendingVariates := make([]nn.ParamVector, 0, len(results))
	participants := 0
	for j, res := range results {
		ci := jobs[j].Client
		if res.Steps == 0 {
			continue
		}
		// Option II variate refresh, computed client-side from the
		// wire-visible broadcasts: cᵢ⁺ = cᵢ − c + (x − yᵢ)/(steps·η).
		inv := 1.0 / (float64(res.Steps) * a.cfg.LR)
		ciNew := a.ci[ci].Sub(recvC)
		drift := recvGlobal.Sub(res.Params)
		ciNew.AXPY(inv, drift)

		model, ok := tr.Up(res.Params, ci, res.Params, recvGlobal)
		if !ok {
			continue // straggler: model upload missed the deadline
		}
		variate, ok := tr.Up(ciNew, ci, ciNew, a.ci[ci])
		if !ok {
			continue // straggler: variate upload missed the deadline
		}

		if modelDeltaSum == nil {
			modelDeltaSum = make(nn.ParamVector, n)
			variateDeltaSum = make(nn.ParamVector, n)
		}
		modelDeltaSum.AXPY(1, model.Sub(a.global))
		variateDeltaSum.AXPY(1, variate.Sub(a.ci[ci]))
		if a.cfg.Reducer != nil {
			models = append(models, model)
		}
		pendingClients = append(pendingClients, ci)
		// Clone: tr.Up may return a transport- or adversary-owned scratch
		// buffer that is only valid until the next BeginRound, but cᵢ
		// lives for the whole run. Retaining the alias would let a later
		// round's wire traffic rewrite stored variates in place.
		pendingVariates = append(pendingVariates, variate.Clone())
		participants++
	}
	if participants == 0 {
		return nil
	}
	if a.cfg.BelowQuorum(participants) {
		return nil // degraded round: x, c and every cᵢ stay as they were
	}
	for i, ci := range pendingClients {
		a.ci[ci] = pendingVariates[i]
	}
	// Server updates: x ← x + (1/|S|)·Σ(yᵢ−x); c ← c + (|S|/N)·mean variate delta.
	// The x-update algebraically equals the plain mean of the uploaded
	// models, but the delta-sum form differs from it in final-ulp rounding
	// — so the reducer path (x ← Reduce(models)) engages only when a rule
	// is configured, and nil keeps histories bit-identical.
	if a.cfg.Reducer != nil {
		agg, err := fl.ReduceUploads(a.cfg.Reducer, models, nil)
		if err != nil && !errors.Is(err, fl.ErrNoFiniteUploads) {
			return fmt.Errorf("baselines: scaffold round %d: %w", r, err)
		}
		if err == nil {
			a.global = agg
		}
	} else {
		a.global.AXPY(1/float64(participants), modelDeltaSum)
	}
	a.c.AXPY(1/float64(a.env.NumClients()), variateDeltaSum)
	return nil
}

// RoundComm implements fl.Algorithm: model + variate in each direction.
func (a *SCAFFOLD) RoundComm(k int) fl.CommProfile {
	return fl.CommProfile{ModelsDown: k, ModelsUp: k, VarsDown: k, VarsUp: k}
}
