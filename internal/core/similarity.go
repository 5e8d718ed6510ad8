// Package core implements FedCross, the paper's primary contribution: a
// multi-to-multi FL training scheme in which K middleware models are
// shuffle-dispatched to K clients each round, then pairwise fused by
// cross-aggregation (CrossAggr) with collaborative models chosen by one of
// three selection strategies (CoModelSel). The deployment model is the
// one-shot average of the middleware models (GlobalModelGen) and never
// trains. Two acceleration methods — propeller models and dynamic α —
// implement Section III-D.
package core

import (
	"fmt"
	"math"

	"fedcross/internal/nn"
)

// SimilarityFunc scores how aligned two parameter vectors are; higher
// means more similar. It drives the highest/lowest-similarity selection
// strategies.
type SimilarityFunc func(a, b nn.ParamVector) float64

// Measure couples a pairwise similarity with the fused form the
// Gram-matrix pass exploits. Pair is the direct scoring function and is
// never nil for a valid measure. FromDot, when non-nil, derives the same
// score from dot(a,b) and the cached squared norms ‖a‖², ‖b‖² — the
// contract is bit-identity with Pair (pinned by the gram tests), which
// holds because the nn reduction kernels accumulate in one fixed order
// whether fused or separate. Measures that need the full vectors
// (Euclidean distance) leave FromDot nil; the Gram pass then falls back
// to Pair per ordered pair, so arbitrary (even asymmetric) custom
// measures stay exact.
type Measure struct {
	// Name labels the measure in reports and CLI flags.
	Name string
	// Pair scores two vectors directly.
	Pair SimilarityFunc
	// FromDot maps (dot(a,b), ‖a‖², ‖b‖²) to Pair's score, or is nil.
	FromDot func(dot, aa, bb float64) float64
}

// CosineSimilarity is the standard cosine: dot(a,b)/(‖a‖·‖b‖). The paper
// names cosine similarity as its measure; this is the default. The fused
// DotNorms kernel makes it a single pass over both vectors.
func CosineSimilarity(a, b nn.ParamVector) float64 {
	return cosineFromDot(a.DotNorms(b))
}

func cosineFromDot(dot, aa, bb float64) float64 {
	na, nb := math.Sqrt(aa), math.Sqrt(bb)
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (na * nb)
}

// PaperSimilarity is the formula as printed in the paper, which divides by
// the *sum* of norms rather than their product: dot(a,b)/(‖a‖+‖b‖).
// It is provided for fidelity. Its rankings usually agree with cosine's:
// for one model a, candidates b of a common norm r score dot(a,b) times
// 1/(‖a‖+r) under this formula and 1/(‖a‖·r) under cosine, the same
// positive factor for every candidate, so the order is the same. The
// middleware models start each round from the same weights and train as
// many local steps, so their norms stay close, and the two orders can
// only differ between candidates whose cosines are about as close as
// their norms.
func PaperSimilarity(a, b nn.ParamVector) float64 {
	return paperFromDot(a.DotNorms(b))
}

func paperFromDot(dot, aa, bb float64) float64 {
	na, nb := math.Sqrt(aa), math.Sqrt(bb)
	if na+nb == 0 {
		return 0
	}
	return dot / (na + nb)
}

// EuclideanSimilarity is the negated L2 distance, the alternative measure
// the paper leaves as future work. Higher (less negative) means more
// similar.
func EuclideanSimilarity(a, b nn.ParamVector) float64 {
	return -math.Sqrt(a.DistanceSq(b))
}

// CosineMeasure is the default measure (what the paper names).
func CosineMeasure() Measure {
	return Measure{Name: "cosine", Pair: CosineSimilarity, FromDot: cosineFromDot}
}

// PaperMeasure is the paper's printed sum-of-norms formula.
func PaperMeasure() Measure {
	return Measure{Name: "paper", Pair: PaperSimilarity, FromDot: paperFromDot}
}

// EuclideanMeasure is negated L2 distance. It has no FromDot form: the
// distance is accumulated elementwise over the difference vector, which a
// Gram product cannot reproduce bit-identically, so the matrix pass
// scores its pairs with Pair directly.
func EuclideanMeasure() Measure {
	return Measure{Name: "euclidean", Pair: EuclideanSimilarity}
}

// normalize is the single policy for incomplete measures: the fully zero
// Measure means "default to cosine", while a partially built one (FromDot
// or Name without Pair) is a caller bug — silently rescoring it with
// cosine would mislabel every result. Options.Validate, New and
// NewSimMatrix all defer to it.
func (m Measure) normalize() (Measure, error) {
	if m.Pair != nil {
		return m, nil
	}
	if m.FromDot != nil || m.Name != "" {
		return Measure{}, fmt.Errorf("core: similarity measure %q has no Pair function", m.Name)
	}
	return CosineMeasure(), nil
}

// SimilarityByName resolves a measure for CLI flags.
func SimilarityByName(name string) (Measure, error) {
	switch name {
	case "", "cosine":
		return CosineMeasure(), nil
	case "paper":
		return PaperMeasure(), nil
	case "euclidean":
		return EuclideanMeasure(), nil
	default:
		return Measure{}, fmt.Errorf("core: unknown similarity measure %q (want cosine, paper or euclidean)", name)
	}
}
