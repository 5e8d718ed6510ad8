package core

import (
	"math"
	"testing"
	"testing/quick"

	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

func randVec(rng *tensor.RNG, n int) nn.ParamVector {
	v := make(nn.ParamVector, n)
	for i := range v {
		v[i] = rng.Normal(0, 1)
	}
	return v
}

func TestCosineSimilarityProperties(t *testing.T) {
	rng := tensor.NewRNG(1)
	a := randVec(rng, 20)
	b := randVec(rng, 20)
	if got := CosineSimilarity(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("cos(a,a) = %v, want 1", got)
	}
	if got := CosineSimilarity(a, a.Scale(-1)); math.Abs(got+1) > 1e-12 {
		t.Fatalf("cos(a,-a) = %v, want -1", got)
	}
	if math.Abs(CosineSimilarity(a, b)-CosineSimilarity(b, a)) > 1e-12 {
		t.Fatal("cosine must be symmetric")
	}
	// Scale invariance.
	if math.Abs(CosineSimilarity(a, b)-CosineSimilarity(a.Scale(3), b.Scale(0.5))) > 1e-12 {
		t.Fatal("cosine must be scale invariant")
	}
	// Zero vector convention.
	if got := CosineSimilarity(make(nn.ParamVector, 20), b); got != 0 {
		t.Fatalf("cos(0,b) = %v, want 0", got)
	}
}

func TestPaperSimilarity(t *testing.T) {
	a := nn.ParamVector{3, 4} // norm 5
	b := nn.ParamVector{3, 4}
	// dot = 25, norms sum = 10 -> 2.5 (not 1: it is not a true cosine).
	if got := PaperSimilarity(a, b); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("paper similarity = %v, want 2.5", got)
	}
	if got := PaperSimilarity(make(nn.ParamVector, 2), make(nn.ParamVector, 2)); got != 0 {
		t.Fatalf("paper similarity of zeros = %v", got)
	}
}

func TestEuclideanSimilarityOrdering(t *testing.T) {
	a := nn.ParamVector{0, 0}
	near := nn.ParamVector{0.1, 0}
	far := nn.ParamVector{5, 5}
	if EuclideanSimilarity(a, near) <= EuclideanSimilarity(a, far) {
		t.Fatal("nearer vector must score higher")
	}
}

func TestSimilarityByName(t *testing.T) {
	for _, name := range []string{"", "cosine", "paper", "euclidean"} {
		if _, err := SimilarityByName(name); err != nil {
			t.Fatalf("SimilarityByName(%q): %v", name, err)
		}
	}
	if _, err := SimilarityByName("nope"); err == nil {
		t.Fatal("expected error for unknown measure")
	}
}

func TestStrategyByNameAndString(t *testing.T) {
	cases := map[string]Strategy{
		"in-order": InOrder, "inorder": InOrder,
		"highest": HighestSimilarity, "highest-similarity": HighestSimilarity,
		"lowest": LowestSimilarity, "lowest-similarity": LowestSimilarity,
		"": LowestSimilarity,
	}
	for name, want := range cases {
		got, err := StrategyByName(name)
		if err != nil || got != want {
			t.Fatalf("StrategyByName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := StrategyByName("bogus"); err == nil {
		t.Fatal("expected error")
	}
	if InOrder.String() != "in-order" || HighestSimilarity.String() != "highest-similarity" || LowestSimilarity.String() != "lowest-similarity" {
		t.Fatal("strategy String names")
	}
}

func TestInOrderNeverSelf(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		k := 2 + rng.Intn(10)
		w := make([]nn.ParamVector, k)
		for i := range w {
			w[i] = randVec(rng, 4)
		}
		for r := 0; r < 3*k; r++ {
			for i := 0; i < k; i++ {
				j := CoModelSel(InOrder, i, r, w, nil)
				if j == i || j < 0 || j >= k {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInOrderCoversAllPeersInKMinus1Rounds(t *testing.T) {
	// Paper claim: in every K−1 rounds each middleware model collaborates
	// with all the other K−1 models once.
	for _, k := range []int{2, 3, 5, 8} {
		w := make([]nn.ParamVector, k)
		rng := tensor.NewRNG(int64(k))
		for i := range w {
			w[i] = randVec(rng, 3)
		}
		for base := 0; base < 2; base++ { // two consecutive windows
			for i := 0; i < k; i++ {
				seen := map[int]bool{}
				for r := base * (k - 1); r < (base+1)*(k-1); r++ {
					seen[CoModelSel(InOrder, i, r, w, nil)] = true
				}
				if len(seen) != k-1 {
					t.Fatalf("K=%d model %d window %d saw %d peers, want %d", k, i, base, len(seen), k-1)
				}
			}
		}
	}
}

func TestInOrderIsPermutationEachRound(t *testing.T) {
	// Every uploaded model is chosen as a collaborator exactly once per
	// round — the property Equation 2's telescoping sum relies on.
	for _, k := range []int{2, 4, 7} {
		w := make([]nn.ParamVector, k)
		rng := tensor.NewRNG(int64(k))
		for i := range w {
			w[i] = randVec(rng, 3)
		}
		for r := 0; r < 2*k; r++ {
			counts := make([]int, k)
			for i := 0; i < k; i++ {
				counts[CoModelSel(InOrder, i, r, w, nil)]++
			}
			for j, c := range counts {
				if c != 1 {
					t.Fatalf("K=%d round %d: model %d chosen %d times", k, r, j, c)
				}
			}
		}
	}
}

func TestSimilarityStrategiesPickExpected(t *testing.T) {
	rng := tensor.NewRNG(3)
	base := randVec(rng, 16)
	near := base.Clone()
	near.AXPY(0.01, randVec(rng, 16)) // almost identical
	far := base.Scale(-1)             // opposite direction
	w := []nn.ParamVector{base, near, far}

	if got := CoModelSel(HighestSimilarity, 0, 0, w, CosineSimilarity); got != 1 {
		t.Fatalf("highest similarity picked %d, want 1 (the near clone)", got)
	}
	if got := CoModelSel(LowestSimilarity, 0, 0, w, CosineSimilarity); got != 2 {
		t.Fatalf("lowest similarity picked %d, want 2 (the opposite)", got)
	}
	// Nil similarity defaults to cosine.
	if got := CoModelSel(LowestSimilarity, 0, 0, w, nil); got != 2 {
		t.Fatalf("nil similarity default picked %d", got)
	}
}

func TestCoModelSelNeverSelfAnyStrategy(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		k := 2 + rng.Intn(6)
		w := make([]nn.ParamVector, k)
		for i := range w {
			w[i] = randVec(rng, 8)
		}
		r := rng.Intn(50)
		for i := 0; i < k; i++ {
			for _, s := range []Strategy{InOrder, HighestSimilarity, LowestSimilarity} {
				if CoModelSel(s, i, r, w, CosineSimilarity) == i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCoModelSelPanics(t *testing.T) {
	w := []nn.ParamVector{{1}, {2}}
	for _, fn := range []func(){
		func() { CoModelSel(InOrder, 0, 0, w[:1], nil) },
		func() { CoModelSel(InOrder, 5, 0, w, nil) },
		func() { CoModelSel(Strategy(99), 0, 0, w, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestCrossAggrEndpoints(t *testing.T) {
	v := nn.ParamVector{1, 2}
	w := nn.ParamVector{3, 6}
	got := CrossAggr(v, w, 0.75)
	if got[0] != 1.5 || got[1] != 3 {
		t.Fatalf("CrossAggr = %v", got)
	}
}

// TestLemma34Contraction verifies the paper's Lemma 3.4 numerically:
// with wᵢ = α·vᵢ + (1−α)·vᵢ′ where i↦i′ is the in-order permutation,
// Σ‖wᵢ − w⋆‖² ≤ Σ‖vᵢ − w⋆‖² for any α ∈ [0,1] and any w⋆.
func TestLemma34Contraction(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		k := 2 + rng.Intn(8)
		n := 1 + rng.Intn(12)
		v := make([]nn.ParamVector, k)
		for i := range v {
			v[i] = randVec(rng, n)
		}
		wstar := randVec(rng, n)
		alpha := rng.Float64()
		r := rng.Intn(20)

		sumBefore, sumAfter := 0.0, 0.0
		for i := 0; i < k; i++ {
			co := CoModelSel(InOrder, i, r, v, nil)
			w := CrossAggr(v[i], v[co], alpha)
			sumBefore += v[i].DistanceSq(wstar)
			sumAfter += w.DistanceSq(wstar)
		}
		return sumAfter <= sumBefore+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEquation2MeanPreservation verifies Equation 2: with the in-order
// strategy the sum (hence mean) of the middleware models is invariant
// under cross-aggregation, so GlobalModelGen commutes with CrossAggr.
func TestEquation2MeanPreservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		k := 2 + rng.Intn(8)
		n := 1 + rng.Intn(10)
		v := make([]nn.ParamVector, k)
		for i := range v {
			v[i] = randVec(rng, n)
		}
		alpha := rng.Float64()
		r := rng.Intn(20)
		w := make([]nn.ParamVector, k)
		for i := range w {
			w[i] = CrossAggr(v[i], v[CoModelSel(InOrder, i, r, v, nil)], alpha)
		}
		before := GlobalModelGen(v)
		after := GlobalModelGen(w)
		for i := range before {
			if math.Abs(before[i]-after[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalModelGenIsMean(t *testing.T) {
	w := []nn.ParamVector{{2, 0}, {0, 2}, {4, 4}}
	g := GlobalModelGen(w)
	if g[0] != 2 || g[1] != 2 {
		t.Fatalf("GlobalModelGen = %v", g)
	}
}

func TestOptionsValidate(t *testing.T) {
	good := DefaultOptions()
	if err := good.Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	bad := []Options{
		func() Options { o := DefaultOptions(); o.Alpha = 0.4; return o }(),
		func() Options { o := DefaultOptions(); o.Alpha = 1.0; return o }(),
		func() Options { o := DefaultOptions(); o.Strategy = Strategy(9); return o }(),
		func() Options { o := DefaultOptions(); o.Accel = AccelMode(9); return o }(),
		func() Options { o := DefaultOptions(); o.Accel = AccelPropeller; o.AccelRounds = 0; return o }(),
		func() Options { o := DefaultOptions(); o.Accel = AccelPropeller; o.PropellerCount = 0; return o }(),
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error for %+v", i, o)
		}
	}
	if _, err := New(bad[0]); err == nil {
		t.Fatal("New must reject invalid options")
	}
}

func TestAccelModeString(t *testing.T) {
	if AccelNone.String() != "vanilla" || AccelPropeller.String() != "pm" ||
		AccelDynamicAlpha.String() != "da" || AccelBoth.String() != "pm-da" {
		t.Fatal("accel mode names")
	}
}

func TestEffectiveAlphaRamp(t *testing.T) {
	opts := DefaultOptions()
	opts.Accel = AccelDynamicAlpha
	opts.AccelRounds = 10
	opts.Alpha = 0.99
	f := MustNew(opts)
	if got := f.effectiveAlpha(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("alpha(0) = %v, want 0.5", got)
	}
	mid := f.effectiveAlpha(5)
	if mid <= 0.5 || mid >= 0.99 {
		t.Fatalf("alpha(5) = %v, want strictly inside ramp", mid)
	}
	if got := f.effectiveAlpha(10); got != 0.99 {
		t.Fatalf("alpha(10) = %v, want 0.99", got)
	}
	if got := f.effectiveAlpha(1000); got != 0.99 {
		t.Fatalf("alpha(1000) = %v, want 0.99", got)
	}
	// Monotone non-decreasing across the ramp.
	prev := -1.0
	for r := 0; r <= 12; r++ {
		a := f.effectiveAlpha(r)
		if a < prev {
			t.Fatalf("alpha not monotone at round %d: %v < %v", r, a, prev)
		}
		prev = a
	}
}

func TestPropellerWindow(t *testing.T) {
	opts := DefaultOptions()
	opts.Accel = AccelPropeller
	opts.AccelRounds = 4
	f := MustNew(opts)
	if !f.propellerActive(0) || !f.propellerActive(3) {
		t.Fatal("propeller should be active inside the window")
	}
	if f.propellerActive(4) {
		t.Fatal("propeller should stop after the window")
	}

	opts.Accel = AccelBoth
	g := MustNew(opts)
	if !g.propellerActive(1) {
		t.Fatal("pm-da: propeller active in first half")
	}
	if g.propellerActive(2) {
		t.Fatal("pm-da: propeller inactive in second half")
	}
	if a := g.effectiveAlpha(1); a != opts.Alpha {
		t.Fatalf("pm-da first half alpha = %v, want nominal", a)
	}
	if a := g.effectiveAlpha(2); a >= opts.Alpha {
		t.Fatalf("pm-da second half should ramp, alpha = %v", a)
	}
}

func TestPropellerAggrUsesMeanOfPeers(t *testing.T) {
	opts := DefaultOptions()
	opts.Accel = AccelPropeller
	opts.AccelRounds = 10
	opts.PropellerCount = 2
	opts.Alpha = 0.5
	f := MustNew(opts)
	uploads := []nn.ParamVector{{0, 0}, {2, 0}, {0, 2}, {2, 2}}
	// In-order propellers for i=0, r=0..1, K=4: offsets (0%3+1)=1 and
	// (1%3+1)=2 -> models 1 and 2; mean = (1,1); result = 0.5*(0,0)+0.5*(1,1).
	sel := f.propellerSel(nil, 0, 0, uploads)
	if len(sel) != 2 || sel[0] != 1 || sel[1] != 2 {
		t.Fatalf("propellers of model 0 in round 0 = %v, want [1 2]", sel)
	}
	got := make(nn.ParamVector, len(uploads[0]))
	propellerAggrTo(got, uploads[0], []nn.ParamVector{uploads[sel[0]], uploads[sel[1]]}, 0.5)
	if math.Abs(got[0]-0.5) > 1e-12 || math.Abs(got[1]-0.5) > 1e-12 {
		t.Fatalf("propellerAggr = %v, want (0.5, 0.5)", got)
	}
	// PropellerCount capped at K-1.
	opts.PropellerCount = 99
	g := MustNew(opts)
	if sel := g.propellerSel(nil, 0, 0, uploads); len(sel) != len(uploads)-1 {
		t.Fatalf("%d propellers among %d uploads, want %d", len(sel), len(uploads), len(uploads)-1)
	}
}
