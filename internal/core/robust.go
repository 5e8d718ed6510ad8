package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"fedcross/internal/fl"
	"fedcross/internal/nn"
)

// sqDistMeasure scores a pair by its SQUARED Euclidean distance — the
// quantity Krum ranks on. It is expressed through the Gram identity
// ‖a−b‖² = ‖a‖² + ‖b‖² − 2·a·b so the K×K pass is NewSimMatrix's tiled
// Gram pass, norms included: Pair and FromDot are the same arithmetic on
// the same fixed-order reductions, so the matrix is bit-identical at
// every worker count (the property the gram tests pin for the similarity
// measures carries over unchanged).
//
// Note the orientation: unlike the similarity measures, HIGHER means
// FARTHER here. The matrix is consumed only by Krum's own scoring below,
// never by CoModelSel.
func sqDistMeasure() Measure {
	return Measure{
		Name:    "sqdist",
		Pair:    func(a, b nn.ParamVector) float64 { return sqDistFromDot(a.DotNorms(b)) },
		FromDot: sqDistFromDot,
	}
}

func sqDistFromDot(dot, aa, bb float64) float64 { return aa + bb - 2*dot }

// KrumReducer implements Krum and Multi-Krum (Blanchard et al., NeurIPS
// 2017): each upload is scored by the sum of its k−f−2 smallest squared
// distances to the other uploads, and the lowest-scoring upload(s) win.
// An attacker far from the honest cluster inflates its own score and is
// never selected, giving a breakdown point of f < (k−2)/2 — at the cost
// of discarding honest diversity (classic Krum keeps exactly one model).
//
// The pairwise distances come from NewSimMatrix under sqDistMeasure, so
// the O(k²·dim) part of the rule fans out over the worker allowance while
// staying bit-identical at every worker count; scoring and selection are
// pure serial functions of the matrix.
type KrumReducer struct {
	// F is the assumed number of Byzantine uploads. 0 derives the most
	// conservative admissible value floor((k−3)/2); any F is clamped to
	// k−3 so at least one distance survives the k−f−2 window.
	F int
	// Multi selects Multi-Krum: average the M best-scoring uploads
	// instead of returning the single winner.
	Multi bool
	// M is Multi-Krum's selection size. 0 defaults to k−f, the paper's
	// choice. Ignored unless Multi is set.
	M int
	// W is the worker allowance for the distance-matrix fan-out.
	W fl.Workers
}

// Name implements fl.Reducer.
func (r *KrumReducer) Name() string {
	if r.Multi {
		switch {
		case r.F > 0 && r.M > 0:
			return fmt.Sprintf("multikrum:%d:%d", r.F, r.M)
		case r.M > 0:
			return fmt.Sprintf("multikrum:%d", r.M)
		default:
			return "multikrum"
		}
	}
	if r.F > 0 {
		return fmt.Sprintf("krum:%d", r.F)
	}
	return "krum"
}

// SetWorkers implements fl.WorkersSetter.
func (r *KrumReducer) SetWorkers(w fl.Workers) { r.W = w }

// Reduce implements fl.Reducer. With fewer than 3 uploads no distance
// window exists and the rule degrades to the weighted mean — Krum is
// undefined there, and a 2-client round has no honest majority to find.
func (r *KrumReducer) Reduce(uploads []nn.ParamVector, weights []float64) nn.ParamVector {
	k := len(uploads)
	if k < 3 {
		return fl.MeanReducer{W: r.W}.Reduce(uploads, weights)
	}
	f := r.F
	if f <= 0 {
		f = (k - 3) / 2
	}
	if f > k-3 {
		f = k - 3
	}
	window := k - f - 2 // number of nearest neighbours summed per score

	m := NewSimMatrix(uploads, sqDistMeasure(), r.W)
	scores := make([]float64, k)
	dists := make([]float64, 0, k-1)
	for i := 0; i < k; i++ {
		dists = dists[:0]
		for j := 0; j < k; j++ {
			if j != i {
				dists = append(dists, m.At(i, j))
			}
		}
		sort.Float64s(dists)
		s := 0.0
		for _, d := range dists[:window] {
			s += d
		}
		scores[i] = s
	}

	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	// Ties break on the lower index so selection is a pure function of
	// the score vector, independent of sort internals.
	sort.SliceStable(order, func(a, b int) bool {
		if scores[order[a]] != scores[order[b]] {
			return scores[order[a]] < scores[order[b]]
		}
		return order[a] < order[b]
	})

	if !r.Multi {
		return uploads[order[0]].Clone()
	}
	msel := r.M
	if msel <= 0 {
		msel = k - f
	}
	if msel > k {
		msel = k
	}
	chosen := make([]nn.ParamVector, msel)
	var chosenW []float64
	if weights != nil {
		chosenW = make([]float64, msel)
	}
	for i := 0; i < msel; i++ {
		chosen[i] = uploads[order[i]]
		if weights != nil {
			chosenW[i] = weights[order[i]]
		}
	}
	return fl.MeanReducer{W: r.W}.Reduce(chosen, chosenW)
}

// ReducerByName is the full aggregation-rule registry: the Krum family
// implemented here ("krum", "krum:<f>", "multikrum", "multikrum:<m>",
// "multikrum:<f>:<m>") plus everything fl.ReducerByName resolves (mean,
// trimmed[:frac], median). This is what the experiment profiles and the
// fedsim -reducer flag go through.
func ReducerByName(name string) (fl.Reducer, error) {
	parts := strings.Split(name, ":")
	switch parts[0] {
	case "krum":
		r := &KrumReducer{}
		switch len(parts) {
		case 1:
		case 2:
			f, err := parseKrumParam(name, "f", parts[1])
			if err != nil {
				return nil, err
			}
			r.F = f
		default:
			return nil, fmt.Errorf("core: bad reducer %q (want krum or krum:<f>)", name)
		}
		return r, nil
	case "multikrum":
		r := &KrumReducer{Multi: true}
		switch len(parts) {
		case 1:
		case 2:
			m, err := parseKrumParam(name, "m", parts[1])
			if err != nil {
				return nil, err
			}
			r.M = m
		case 3:
			f, err := parseKrumParam(name, "f", parts[1])
			if err != nil {
				return nil, err
			}
			m, err := parseKrumParam(name, "m", parts[2])
			if err != nil {
				return nil, err
			}
			r.F, r.M = f, m
		default:
			return nil, fmt.Errorf("core: bad reducer %q (want multikrum[:f]:<m>)", name)
		}
		return r, nil
	case "", "mean", "median", "trimmed":
		return fl.ReducerByName(name)
	}
	return nil, fmt.Errorf("core: unknown reducer %q (want mean, trimmed[:frac], median, krum[:f] or multikrum[:f][:m])", name)
}

func parseKrumParam(name, field, s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("core: bad %s in reducer %q (want a non-negative integer)", field, name)
	}
	return v, nil
}
