package fl

import (
	"fmt"
	"math"
	"sort"

	"fedcross/internal/nn"
)

// ClientEval is one client's local-data accuracy under a given model.
type ClientEval struct {
	Client  int
	Acc     float64
	Samples int
}

// PerClientReport summarises how evenly a global model serves the
// federation — the fairness lens on the paper's claim that FedCross
// produces "a unified global model to benefit all the clients".
type PerClientReport struct {
	Evals []ClientEval
	// Mean is the sample-weighted mean accuracy.
	Mean float64
	// Worst is the lowest client accuracy (the client the model serves
	// worst).
	Worst float64
	// Std is the unweighted standard deviation across clients; lower
	// means the model generalises more evenly.
	Std float64
}

// EvaluatePerClient measures the model on every client's local data.
// Clients are evaluated in parallel across the allowance w (Workers{}
// means every core, unbudgeted, matching the old workers=0 convention;
// each worker runs a serial per-client pass); the report is reduced in
// client order, so the result is identical at every worker count.
func EvaluatePerClient(env *Env, vec nn.ParamVector, batchSize int, w Workers) (*PerClientReport, error) {
	n := env.NumClients()
	if n == 0 {
		return nil, fmt.Errorf("fl: EvaluatePerClient: no clients")
	}
	clientAccs := make([]float64, n)
	err := parallelForErr(n, w, nil, func(_, ci int) error {
		if env.Fed.Size(ci) == 0 {
			return nil
		}
		// Lease the shard only for this client's evaluation, releasing on
		// every exit path so a failed pass cannot strand a lease.
		shard := env.Fed.LeaseShard(ci)
		defer env.Fed.ReleaseShard(ci)
		acc, _, err := evaluate(env.Model, vec, shard, batchSize, Limit(1))
		if err != nil {
			return fmt.Errorf("fl: EvaluatePerClient client %d: %w", ci, err)
		}
		clientAccs[ci] = acc
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &PerClientReport{Worst: math.Inf(1)}
	totalSamples := 0
	var accs []float64
	for ci := 0; ci < n; ci++ {
		sz := env.Fed.Size(ci)
		if sz == 0 {
			continue
		}
		acc := clientAccs[ci]
		rep.Evals = append(rep.Evals, ClientEval{Client: ci, Acc: acc, Samples: sz})
		rep.Mean += acc * float64(sz)
		totalSamples += sz
		if acc < rep.Worst {
			rep.Worst = acc
		}
		accs = append(accs, acc)
	}
	if totalSamples == 0 {
		return nil, fmt.Errorf("fl: EvaluatePerClient: all shards empty")
	}
	rep.Mean /= float64(totalSamples)
	mean := 0.0
	for _, a := range accs {
		mean += a
	}
	mean /= float64(len(accs))
	variance := 0.0
	for _, a := range accs {
		d := a - mean
		variance += d * d
	}
	rep.Std = math.Sqrt(variance / float64(len(accs)))
	sort.Slice(rep.Evals, func(i, j int) bool { return rep.Evals[i].Acc < rep.Evals[j].Acc })
	return rep, nil
}

// BottomDecileMean returns the mean accuracy of the worst 10% of clients
// (at least one), a standard fairness summary.
func (r *PerClientReport) BottomDecileMean() float64 {
	if len(r.Evals) == 0 {
		return 0
	}
	n := len(r.Evals) / 10
	if n == 0 {
		n = 1
	}
	s := 0.0
	for _, e := range r.Evals[:n] { // Evals sorted ascending by Acc
		s += e.Acc
	}
	return s / float64(n)
}
