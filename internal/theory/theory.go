// Package theory implements the paper's convergence analysis (Section
// III-C): the Theorem-1 bound calculator and a quadratic-federation
// simulator that verifies the analysis numerically — Lemma 3.4's
// contraction and the O(1/t) gap decay — on objectives where L, µ, Γ, G
// and F⋆ are known in closed form.
package theory

import (
	"fmt"
	"math"

	"fedcross/internal/core"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// Assumptions carries the constants of Assumptions 3.1–3.3 plus the
// schedule parameters that appear in Theorem 1.
type Assumptions struct {
	// L is the smoothness constant (Assumption 3.1).
	L float64
	// Mu is the strong-convexity constant (Assumption 3.2).
	Mu float64
	// G2 bounds E‖∇f(w;ξ)‖² (Assumption 3.3).
	G2 float64
	// Gamma is Γ = F⋆ − (1/N)Σ fᵢ⋆, the heterogeneity gap.
	Gamma float64
	// E is the number of local SGD iterations between cross-aggregations.
	E int
	// Delta1 is ‖w₁ − w⋆‖², the initial squared distance.
	Delta1 float64
}

// Validate reports the first problem with the constants. Each check is
// written so that a NaN fails it.
func (a Assumptions) Validate() error {
	switch {
	case !(a.L > 0):
		return fmt.Errorf("theory: L = %v must be positive", a.L)
	case !(a.Mu > 0 && a.Mu <= a.L):
		return fmt.Errorf("theory: mu = %v must be in (0, L=%v]", a.Mu, a.L)
	case !(a.G2 >= 0 && a.Gamma >= 0 && a.Delta1 >= 0):
		return fmt.Errorf("theory: G2/Gamma/Delta1 must be non-negative: %+v", a)
	case a.E <= 0:
		return fmt.Errorf("theory: E = %d must be positive", a.E)
	}
	return nil
}

// B returns B = 10LΓ + 4(E−1)²G² from Theorem 1.
func (a Assumptions) B() float64 {
	e1 := float64(a.E - 1)
	return 10*a.L*a.Gamma + 4*e1*e1*a.G2
}

// Lambda returns λ = max{10L/µ, E} − 1, the schedule shift of Theorem 1.
func (a Assumptions) Lambda() float64 {
	return math.Max(10*a.L/a.Mu, float64(a.E)) - 1
}

// LearningRate returns η_t = 2/(µ(t+λ)), the decaying step size the proof
// requires.
func (a Assumptions) LearningRate(t int) float64 {
	return 2 / (a.Mu * (float64(t) + a.Lambda()))
}

// Bound returns Theorem 1's upper bound on E[F(w_t)] − F⋆ after t total
// SGD iterations:
//
//	L/(2µ(t+λ)) · (4B/µ + µ(λ+1)/2 · Δ₁).
func (a Assumptions) Bound(t int) float64 {
	lam := a.Lambda()
	return a.L / (2 * a.Mu * (float64(t) + lam)) *
		(4*a.B()/a.Mu + a.Mu*(lam+1)/2*a.Delta1)
}

// QuadraticFederation is a federation of strongly convex quadratic
// clients fᵢ(w) = ½‖w − θᵢ‖², for which every constant of the analysis is
// known in closed form: L = µ = 1, fᵢ⋆ = 0, w⋆ = mean(θ), and
// Γ = F(w⋆). It is the test bench for the convergence theory.
type QuadraticFederation struct {
	// Theta holds each client's optimum.
	Theta []nn.ParamVector
	// WStar is the global optimum, the mean of Theta.
	WStar nn.ParamVector
}

// NewQuadraticFederation draws n client optima of dimension dim spread
// with the given radius.
func NewQuadraticFederation(n, dim int, radius float64, rng *tensor.RNG) *QuadraticFederation {
	if n < 2 || dim < 1 {
		panic(fmt.Sprintf("theory: federation needs n>=2, dim>=1; got %d, %d", n, dim))
	}
	q := &QuadraticFederation{Theta: make([]nn.ParamVector, n)}
	for i := range q.Theta {
		v := make(nn.ParamVector, dim)
		for j := range v {
			v[j] = rng.Normal(0, radius)
		}
		q.Theta[i] = v
	}
	q.WStar = nn.MeanVectors(q.Theta)
	return q
}

// GlobalLoss returns F(w) = (1/N)Σ ½‖w−θᵢ‖².
func (q *QuadraticFederation) GlobalLoss(w nn.ParamVector) float64 {
	s := 0.0
	for _, th := range q.Theta {
		s += 0.5 * w.DistanceSq(th)
	}
	return s / float64(len(q.Theta))
}

// OptimalLoss returns F⋆ = F(w⋆).
func (q *QuadraticFederation) OptimalLoss() float64 { return q.GlobalLoss(q.WStar) }

// Gamma returns Γ = F⋆ − mean fᵢ⋆ = F⋆ (each fᵢ⋆ = 0).
func (q *QuadraticFederation) Gamma() float64 { return q.OptimalLoss() }

// TraceResult reports one FedCross run on the quadratic federation.
type TraceResult struct {
	// Gap[r] is F(w̄) − F⋆ after round r+1, the deployment-model gap.
	// Note that with in-order selection and full participation the mean
	// model is invariant under cross-aggregation (Equation 2), so Gap does
	// not depend on alpha here.
	Gap []float64
	// ModelGap[r] is (1/N)Σᵢ F(wᵢ) − F⋆, the average per-middleware-model
	// gap. Unlike Gap it grows with alpha: larger alpha means less mixing
	// and more spread between middleware models — the Table-III pathology.
	ModelGap []float64
	// MaxGradNorm2 is the largest squared gradient norm observed — an
	// empirical stand-in for G².
	MaxGradNorm2 float64
}

// RunFedCross simulates FedCross with full participation and the in-order
// strategy on the quadratic federation: every round each middleware model
// runs E gradient-descent steps on its client (with the Theorem-1 step
// size), then cross-aggregates with weight alpha. The assignment of
// models to clients rotates so every model visits every client, mirroring
// the shuffle dispatch.
func (q *QuadraticFederation) RunFedCross(rounds, e int, alpha float64, a Assumptions) TraceResult {
	n := len(q.Theta)
	dim := len(q.WStar)
	w := make([]nn.ParamVector, n)
	for i := range w {
		w[i] = make(nn.ParamVector, dim) // start at the origin
	}
	res := TraceResult{Gap: make([]float64, rounds), ModelGap: make([]float64, rounds)}
	t := 1
	for r := 0; r < rounds; r++ {
		// Local training: model i trains on client (i+r) mod N.
		for i := range w {
			client := (i + r) % n
			for step := 0; step < e; step++ {
				eta := a.LearningRate(t + step)
				grad := w[i].Sub(q.Theta[client]) // ∇fᵢ(w) = w − θᵢ
				if g2 := grad.Dot(grad); g2 > res.MaxGradNorm2 {
					res.MaxGradNorm2 = g2
				}
				w[i].AXPY(-eta, grad)
			}
		}
		t += e
		// Cross-aggregation (in-order).
		next := make([]nn.ParamVector, n)
		for i := range w {
			co := core.CoModelSel(core.InOrder, i, r, w, nil)
			next[i] = core.CrossAggr(w[i], w[co], alpha)
		}
		w = next
		res.Gap[r] = q.GlobalLoss(nn.MeanVectors(w)) - q.OptimalLoss()
		mg := 0.0
		for i := range w {
			mg += q.GlobalLoss(w[i]) - q.OptimalLoss()
		}
		res.ModelGap[r] = mg / float64(n)
	}
	return res
}
