package baselines

import "fmt"

// FedProx extends FedAvg with a proximal term µ/2·‖w − w_global‖² in every
// client's loss, stabilising local training under heterogeneity (Li et
// al., MLSys 2020). The paper tunes µ per dataset from
// {0.001, 0.01, 0.1, 1.0}.
type FedProx struct {
	// Mu is the proximal coefficient.
	Mu float64
	FedAvg
}

// NewFedProx returns a FedProx instance with proximal coefficient mu.
func NewFedProx(mu float64) (*FedProx, error) {
	if mu <= 0 {
		return nil, fmt.Errorf("baselines: fedprox mu %v must be positive", mu)
	}
	return &FedProx{Mu: mu}, nil
}

// Name implements fl.Algorithm.
func (a *FedProx) Name() string { return "fedprox" }

// Category implements fl.Algorithm.
func (a *FedProx) Category() string { return "Global Control Variable" }

// Round trains with the proximal pull toward the dispatched global model
// (the wire-visible broadcast: trainSelected anchors the proximal term on
// what the clients actually received).
func (a *FedProx) Round(r int, selected []int) error {
	spec := a.cfg.LocalSpec()
	spec.Prox = a.Mu
	return a.round("fedprox", r, selected, spec)
}
