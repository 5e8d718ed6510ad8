package theory

import (
	"math"
	"testing"
	"testing/quick"

	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

func validAssumptions() Assumptions {
	return Assumptions{L: 1, Mu: 1, G2: 4, Gamma: 0.5, E: 5, Delta1: 2}
}

func TestAssumptionsValidate(t *testing.T) {
	if err := validAssumptions().Validate(); err != nil {
		t.Fatalf("valid assumptions rejected: %v", err)
	}
	bad := []Assumptions{
		{L: 0, Mu: 1, E: 1},
		{L: 1, Mu: 0, E: 1},
		{L: 1, Mu: 2, E: 1}, // mu > L
		{L: 1, Mu: 1, E: 0},
		{L: 1, Mu: 1, E: 1, G2: -1},
		{L: math.NaN(), Mu: 1, E: 1},
		{L: 1, Mu: math.NaN(), E: 1},
		{L: 1, Mu: 1, E: 1, G2: math.NaN()},
		{L: 1, Mu: 1, E: 1, Gamma: math.NaN()},
		{L: 1, Mu: 1, E: 1, Delta1: math.NaN()},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Fatalf("case %d: expected error for %+v", i, a)
		}
	}
}

func TestBoundFormulaKnownValues(t *testing.T) {
	a := Assumptions{L: 1, Mu: 1, G2: 0, Gamma: 0, E: 1, Delta1: 1}
	// B = 0, lambda = max(10,1)-1 = 9, bound(t) = 1/(2(t+9)) * (0 + 1*10/2*1) = 5/(t+9).
	if got, want := a.B(), 0.0; got != want {
		t.Fatalf("B = %v, want %v", got, want)
	}
	if got, want := a.Lambda(), 9.0; got != want {
		t.Fatalf("Lambda = %v, want %v", got, want)
	}
	// bound(1) = 1/(2·(1+9)) · (0 + 1·10/2·1) = 5/20 = 0.25.
	if got, want := a.Bound(1), 0.25; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Bound(1) = %v, want %v", got, want)
	}
	// E dominating lambda: E=20 -> lambda = 19.
	a2 := Assumptions{L: 1, Mu: 1, G2: 1, Gamma: 1, E: 20, Delta1: 1}
	if got, want := a2.Lambda(), 19.0; got != want {
		t.Fatalf("Lambda = %v, want %v", got, want)
	}
	// B = 10*1*1 + 4*19^2*1 = 1454.
	if got, want := a2.B(), 1454.0; got != want {
		t.Fatalf("B = %v, want %v", got, want)
	}
}

func TestBoundMonotoneDecreasing(t *testing.T) {
	a := validAssumptions()
	prev := math.Inf(1)
	for _, tt := range []int{1, 2, 5, 10, 100, 1000, 10000} {
		b := a.Bound(tt)
		if b <= 0 || b >= prev {
			t.Fatalf("bound not strictly decreasing at t=%d: %v >= %v", tt, b, prev)
		}
		prev = b
	}
	// O(1/t): doubling t from a large base roughly halves the bound.
	r := a.Bound(100000) / a.Bound(200000)
	if r < 1.9 || r > 2.1 {
		t.Fatalf("bound should decay like 1/t, ratio = %v", r)
	}
}

func TestLearningRateSchedule(t *testing.T) {
	a := validAssumptions()
	// eta_t = 2/(mu(t+lambda)) is decreasing and satisfies eta_t <= 2*eta_{t+E}.
	for _, tt := range []int{1, 3, 10, 50} {
		if a.LearningRate(tt) <= a.LearningRate(tt+1) {
			t.Fatalf("learning rate must decrease at t=%d", tt)
		}
		if a.LearningRate(tt) > 2*a.LearningRate(tt+a.E) {
			t.Fatalf("eta_t <= 2*eta_(t+E) violated at t=%d", tt)
		}
	}
}

func TestQuadraticFederationBasics(t *testing.T) {
	rng := tensor.NewRNG(1)
	q := NewQuadraticFederation(5, 3, 1.0, rng)
	if len(q.Theta) != 5 || len(q.WStar) != 3 {
		t.Fatalf("federation dims wrong")
	}
	// F is minimised at WStar: random perturbations never do better.
	f := func(seed int64) bool {
		r := tensor.NewRNG(seed)
		p := q.WStar.Clone()
		for i := range p {
			p[i] += r.Normal(0, 0.5)
		}
		return q.GlobalLoss(p) >= q.OptimalLoss()-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Gamma = F* for quadratic clients with f_i* = 0.
	if q.Gamma() != q.OptimalLoss() {
		t.Fatal("Gamma must equal F* here")
	}
}

func TestFedCrossConvergesOnQuadratics(t *testing.T) {
	rng := tensor.NewRNG(2)
	q := NewQuadraticFederation(6, 4, 1.0, rng)
	a := Assumptions{L: 1, Mu: 1, E: 5, Gamma: q.Gamma(), Delta1: q.WStar.Dot(q.WStar)}
	res := q.RunFedCross(200, a.E, 0.9, a)

	first, last := res.Gap[0], res.Gap[len(res.Gap)-1]
	if last >= first/10 {
		t.Fatalf("gap did not shrink by 10x: %v -> %v", first, last)
	}
	if last < 0 {
		t.Fatalf("gap went negative: %v (F* must lower-bound F)", last)
	}
}

func TestTheorem1BoundHoldsEmpirically(t *testing.T) {
	// Run the quadratic federation, plug the empirical G² into the
	// assumptions, and check the measured gap stays below the Theorem-1
	// bound at every evaluated round.
	rng := tensor.NewRNG(3)
	q := NewQuadraticFederation(5, 3, 1.0, rng)
	aProbe := Assumptions{L: 1, Mu: 1, E: 5, Gamma: q.Gamma(), Delta1: q.WStar.Dot(q.WStar)}
	res := q.RunFedCross(300, aProbe.E, 0.9, aProbe)

	a := aProbe
	a.G2 = res.MaxGradNorm2
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for r, gap := range res.Gap {
		tTotal := (r + 1) * a.E
		if bound := a.Bound(tTotal); gap > bound {
			t.Fatalf("round %d: measured gap %v exceeds Theorem-1 bound %v", r+1, gap, bound)
		}
	}
}

func TestGapDecaysLikeOneOverT(t *testing.T) {
	rng := tensor.NewRNG(4)
	q := NewQuadraticFederation(6, 4, 1.0, rng)
	a := Assumptions{L: 1, Mu: 1, E: 5, Gamma: q.Gamma(), Delta1: q.WStar.Dot(q.WStar)}
	res := q.RunFedCross(400, a.E, 0.9, a)
	// Compare gap at t and 2t deep into the run: the heterogeneity floor
	// Γ > 0 means decay can be slower than exactly 1/t, but it must not
	// stall: require a meaningful reduction.
	g100, g200, g400 := res.Gap[99], res.Gap[199], res.Gap[399]
	if g200 >= g100 || g400 >= g200 {
		t.Fatalf("gap must keep decreasing: %v, %v, %v", g100, g200, g400)
	}
}

func TestAlphaExtremesOnQuadratics(t *testing.T) {
	// The paper's Table III pathology: with alpha ~ 1 the models barely
	// share knowledge, so the middleware models stay spread apart. The
	// per-model gap must be worse at alpha=0.999 than at alpha=0.9. (The
	// mean-model gap is alpha-invariant here by Equation 2, which
	// TestEquation2AlphaInvariance checks explicitly.)
	rng := tensor.NewRNG(5)
	q := NewQuadraticFederation(6, 4, 1.5, rng)
	a := Assumptions{L: 1, Mu: 1, E: 5, Gamma: q.Gamma(), Delta1: q.WStar.Dot(q.WStar)}
	rounds := 60
	g9 := q.RunFedCross(rounds, a.E, 0.9, a).ModelGap[rounds-1]
	g999 := q.RunFedCross(rounds, a.E, 0.999, a).ModelGap[rounds-1]
	if g999 <= g9 {
		t.Fatalf("alpha=0.999 should leave middleware models more spread: model gap %v vs %v", g999, g9)
	}
}

func TestEquation2AlphaInvariance(t *testing.T) {
	// With in-order selection and full participation the deployment-model
	// trajectory is exactly alpha-invariant on quadratics: the linear
	// local updates commute with averaging, and cross-aggregation
	// preserves the sum (Equation 2).
	rng := tensor.NewRNG(8)
	q := NewQuadraticFederation(5, 3, 1.0, rng)
	a := Assumptions{L: 1, Mu: 1, E: 3, Gamma: q.Gamma(), Delta1: q.WStar.Dot(q.WStar)}
	r1 := q.RunFedCross(30, a.E, 0.9, a)
	r2 := q.RunFedCross(30, a.E, 0.999, a)
	for r := range r1.Gap {
		if math.Abs(r1.Gap[r]-r2.Gap[r]) > 1e-9 {
			t.Fatalf("round %d: mean-model gap differs across alpha: %v vs %v", r, r1.Gap[r], r2.Gap[r])
		}
	}
}

func TestRunFedCrossMeanIsGlobal(t *testing.T) {
	// Sanity: the reported gap corresponds to the mean of middleware
	// models, so a 1-round run from the origin with E=1, alpha=1 recovers
	// plain one-step gradient descent toward each theta averaged.
	rng := tensor.NewRNG(6)
	q := NewQuadraticFederation(4, 2, 1.0, rng)
	a := Assumptions{L: 1, Mu: 1, E: 1, Gamma: q.Gamma(), Delta1: q.WStar.Dot(q.WStar)}
	res := q.RunFedCross(1, 1, 0.9, a)
	eta := a.LearningRate(1)
	// Each model i: w = 0 - eta*(0 - theta_{i}) = eta*theta_{i}; the mean
	// over i is eta*WStar regardless of the in-order pairing (Equation 2).
	expected := q.WStar.Scale(eta)
	wantGap := q.GlobalLoss(expected) - q.OptimalLoss()
	if math.Abs(res.Gap[0]-wantGap) > 1e-9 {
		t.Fatalf("1-round gap %v, want %v", res.Gap[0], wantGap)
	}
}

func TestNewQuadraticFederationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n<2")
		}
	}()
	NewQuadraticFederation(1, 2, 1, tensor.NewRNG(1))
}

func TestTraceGradNormRecorded(t *testing.T) {
	rng := tensor.NewRNG(7)
	q := NewQuadraticFederation(4, 3, 1.0, rng)
	a := Assumptions{L: 1, Mu: 1, E: 2, Gamma: q.Gamma(), Delta1: q.WStar.Dot(q.WStar)}
	res := q.RunFedCross(5, a.E, 0.9, a)
	if res.MaxGradNorm2 <= 0 {
		t.Fatal("MaxGradNorm2 should be positive")
	}
	_ = nn.ParamVector{} // keep import for clarity of package under test
}
