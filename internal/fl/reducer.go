package fl

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"fedcross/internal/nn"
)

// Reducer is the pluggable server-side aggregation rule: it combines one
// round's surviving uploads into a single parameter vector. The round
// engine routes every algorithm's aggregation through ReduceUploads, so a
// robust rule (trimmed mean, coordinate-wise median, Krum in
// internal/core) drops in where the hard-coded weighted mean used to be.
//
// Contract: Reduce is called only through ReduceUploads, which guarantees
// a non-empty upload list of equal-length finite vectors and a matching
// non-negative weight list. Reduce must not mutate the uploads and must
// return a fresh vector of the common length. Implementations must be
// pure functions of (uploads, weights) — never of scheduling — so
// histories stay bit-identical at every worker count.
type Reducer interface {
	// Name identifies the rule in reports and flags.
	Name() string
	// Reduce combines the validated uploads into one vector.
	Reduce(uploads []nn.ParamVector, weights []float64) nn.ParamVector
}

// WorkersSetter is optionally implemented by reducers whose Reduce fans
// out internally (the coordinate-wise rules, Krum's distance matrix). The
// runner injects the run's worker allowance before the first round, so a
// reducer inside a scheduled grid cell leases its goroutines from the
// same shared budget as training and evaluation.
type WorkersSetter interface {
	SetWorkers(w Workers)
}

// ErrNoFiniteUploads is returned when every upload was dropped by the
// non-finite payload screen — there is nothing left to aggregate.
var ErrNoFiniteUploads = errors.New("fl: reduce: no finite uploads")

// ReduceUploads is the validated entry point every aggregation goes
// through. It hardens the server against hostile payloads the way the
// codec layer hardens it against hostile headers:
//
//   - a nil reducer falls back to MeanReducer (nil ≡ "mean", relations
//     row reducer),
//   - ragged upload lengths, mismatched weight counts and negative or
//     non-finite weights are errors, never panics,
//   - uploads containing NaN or ±Inf coordinates are dropped before the
//     rule runs (a single poisoned vector must not NaN the whole model);
//     if every upload is dropped, ErrNoFiniteUploads is returned.
//
// weights may be nil for an unweighted reduction.
func ReduceUploads(r Reducer, uploads []nn.ParamVector, weights []float64) (nn.ParamVector, error) {
	if len(uploads) == 0 {
		return nil, fmt.Errorf("fl: reduce: no uploads")
	}
	if weights != nil && len(weights) != len(uploads) {
		return nil, fmt.Errorf("fl: reduce: %d uploads but %d weights", len(uploads), len(weights))
	}
	n := len(uploads[0])
	for i, u := range uploads {
		if len(u) != n {
			return nil, fmt.Errorf("fl: reduce: upload %d has length %d, want %d", i, len(u), n)
		}
	}
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("fl: reduce: weight %d = %v, must be finite and non-negative", i, w)
		}
	}
	uploads, weights = dropNonFinite(uploads, weights)
	if len(uploads) == 0 {
		return nil, ErrNoFiniteUploads
	}
	if r == nil {
		r = MeanReducer{}
	}
	out := r.Reduce(uploads, weights)
	if len(out) != n {
		return nil, fmt.Errorf("fl: reduce: %s returned length %d, want %d", r.Name(), len(out), n)
	}
	return out, nil
}

// dropNonFinite filters out uploads containing NaN or ±Inf coordinates.
// When nothing is dropped the original slices are returned untouched, so
// the clean path adds only a read-only scan (and the mean fallback stays
// bit-identical to the pre-reducer engine).
func dropNonFinite(uploads []nn.ParamVector, weights []float64) ([]nn.ParamVector, []float64) {
	drop := -1
	for i, u := range uploads {
		if !finiteVector(u) {
			drop = i
			break
		}
	}
	if drop == -1 {
		return uploads, weights
	}
	outU := append([]nn.ParamVector(nil), uploads[:drop]...)
	var outW []float64
	if weights != nil {
		outW = append([]float64(nil), weights[:drop]...)
	}
	for i := drop + 1; i < len(uploads); i++ {
		if !finiteVector(uploads[i]) {
			continue
		}
		outU = append(outU, uploads[i])
		if weights != nil {
			outW = append(outW, weights[i])
		}
	}
	return outU, outW
}

// finiteVector reports whether every coordinate is finite.
func finiteVector(v nn.ParamVector) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// MeanReducer is the classic FedAvg rule: the weighted mean of the
// uploads. With nil weights it is the plain mean. It has a breakdown
// point of zero — one unbounded attacker moves the aggregate arbitrarily
// far — and exists as the reference the robust rules are measured
// against.
type MeanReducer struct {
	// W is the worker allowance for the tree-reduce fan-out over client
	// groups. The zero value fans out unbudgeted, which is still
	// bit-deterministic (see treeMean).
	W Workers
}

// Name implements Reducer.
func (MeanReducer) Name() string { return "mean" }

// SetWorkers implements WorkersSetter (pointer receiver, so the value
// MeanReducer{} used by the nil-reducer fallback keeps its zero
// allowance and algorithms that branch on cfg.Reducer != nil are
// unaffected).
func (r *MeanReducer) SetWorkers(w Workers) { r.W = w }

// Reduce implements Reducer. Up to treeLeaf uploads it is bit-identical
// to nn.WeightedMeanVectors' serial fold (TestTreeMeanLegacyFastPath);
// past that it switches to the deterministic group tree-reduce.
func (r MeanReducer) Reduce(uploads []nn.ParamVector, weights []float64) nn.ParamVector {
	return treeMean(uploads, weights, r.W)
}

// treeLeaf is the client-group size at the tree-reduce's leaves. Every
// configuration up to treeLeaf uploads per round takes the single-group
// fast path, nn.WeightedMeanVectors' serial fold exactly
// (TestTreeMeanLegacyFastPath).
const treeLeaf = 64

// treeMaxGroups caps the leaf-group count; beyond it the leaves grow
// instead, keeping the partial-vector footprint bounded at
// treeMaxGroups·dim even for 10^5 uploads.
const treeMaxGroups = 128

// treeMean is the worker-budgeted tree-reduce behind MeanReducer and the
// nil-reducer fallback: uploads are cut into fixed contiguous groups of
// treeLeaf, each group folds serially in index order into one partial,
// and partials combine pairwise (partials[2j] += partials[2j+1]) level by
// level until one remains.
//
// Determinism contract: the tree shape — group boundaries and pair
// assignments — depends only on len(uploads), never on the worker count.
// Workers decide WHO computes a node, not WHAT it sums, so the result is
// bit-identical at any fan-out (and to nn.WeightedMeanVectors whenever
// the inputs fit one group).
func treeMean(uploads []nn.ParamVector, weights []float64, w Workers) nn.ParamVector {
	k := len(uploads)
	leaf := treeLeaf
	if g := (k + leaf - 1) / leaf; g > treeMaxGroups {
		leaf = (k + treeMaxGroups - 1) / treeMaxGroups
	}
	groups := (k + leaf - 1) / leaf
	if groups <= 1 {
		if weights == nil {
			return nn.MeanVectors(uploads)
		}
		return nn.WeightedMeanVectors(uploads, weights)
	}
	dim := len(uploads[0])
	total := 0.0
	if weights != nil {
		for _, x := range weights {
			total += x
		}
		if total == 0 {
			weights = nil // all-zero weights degrade to the plain mean, as WeightedMeanVectors does
		}
	}
	partials := make([]nn.ParamVector, groups)
	parallelForWorker(groups, w, func(_, g int) {
		lo, hi := g*leaf, (g+1)*leaf
		if hi > k {
			hi = k
		}
		p := make(nn.ParamVector, dim)
		if weights == nil {
			copy(p, uploads[lo])
			for _, v := range uploads[lo+1 : hi] {
				for i := range p {
					p[i] += v[i]
				}
			}
		} else {
			for j := lo; j < hi; j++ {
				wj := weights[j] / total
				v := uploads[j]
				for i := range p {
					p[i] += wj * v[i]
				}
			}
		}
		partials[g] = p
	})
	for len(partials) > 1 {
		pairs := len(partials) / 2
		parallelForWorker(pairs, w, func(_, j int) {
			a, b := partials[2*j], partials[2*j+1]
			for i := range a {
				a[i] += b[i]
			}
		})
		next := partials[:0]
		for j := 0; j < pairs; j++ {
			next = append(next, partials[2*j])
		}
		if len(partials)%2 == 1 {
			next = append(next, partials[len(partials)-1])
		}
		partials = next
	}
	out := partials[0]
	if weights == nil {
		inv := 1 / float64(k)
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}

// reduceChunk is the coordinate-chunk width the coordinate-wise rules
// parallelise over: big enough to amortise dispatch, small enough that a
// tiny model still fans out.
const reduceChunk = 4096

// TrimmedMeanReducer is the coordinate-wise trimmed mean: at every
// coordinate the g largest and g smallest values are discarded and the
// rest averaged, with g = floor(Frac·k) clamped so at least one value
// survives. With g ≥ f it tolerates f arbitrary attackers per coordinate
// (Yin et al., ICML 2018). Weights are ignored: rank-based rules order
// values, they do not scale them.
type TrimmedMeanReducer struct {
	// Frac is the fraction trimmed from EACH end (default 0.25 when 0).
	Frac float64
	// W is the worker allowance for the coordinate fan-out.
	W Workers
}

// Name implements Reducer.
func (r TrimmedMeanReducer) Name() string { return fmt.Sprintf("trimmed:%.2f", r.frac()) }

func (r TrimmedMeanReducer) frac() float64 {
	if r.Frac <= 0 {
		return 0.25
	}
	return r.Frac
}

// SetWorkers implements WorkersSetter.
func (r *TrimmedMeanReducer) SetWorkers(w Workers) { r.W = w }

// Reduce implements Reducer.
func (r TrimmedMeanReducer) Reduce(uploads []nn.ParamVector, weights []float64) nn.ParamVector {
	k := len(uploads)
	g := int(r.frac() * float64(k))
	if 2*g >= k {
		g = (k - 1) / 2
	}
	return columnwise(uploads, r.W, func(vals []float64) float64 {
		insertionSort(vals)
		kept := vals[g : len(vals)-g]
		sum := 0.0
		for _, v := range kept {
			sum += v
		}
		return sum / float64(len(kept))
	})
}

// MedianReducer is the coordinate-wise median, the maximally trimmed
// mean: breakdown point just under 1/2. Weights are ignored.
type MedianReducer struct {
	// W is the worker allowance for the coordinate fan-out.
	W Workers
}

// Name implements Reducer.
func (MedianReducer) Name() string { return "median" }

// SetWorkers implements WorkersSetter.
func (r *MedianReducer) SetWorkers(w Workers) { r.W = w }

// Reduce implements Reducer.
func (r MedianReducer) Reduce(uploads []nn.ParamVector, weights []float64) nn.ParamVector {
	return columnwise(uploads, r.W, func(vals []float64) float64 {
		insertionSort(vals)
		k := len(vals)
		if k%2 == 1 {
			return vals[k/2]
		}
		return (vals[k/2-1] + vals[k/2]) / 2
	})
}

// columnwise applies stat to every coordinate's column of upload values,
// fanning out over coordinate chunks. Each worker owns one scratch column
// buffer; every output cell is a pure function of its column, so the
// result is bit-identical at every worker count.
func columnwise(uploads []nn.ParamVector, w Workers, stat func(vals []float64) float64) nn.ParamVector {
	k := len(uploads)
	n := len(uploads[0])
	out := make(nn.ParamVector, n)
	chunks := (n + reduceChunk - 1) / reduceChunk
	// parallelForWorker never runs more than effectiveWorkers(chunks,
	// w.Max) goroutines (a budget can only shrink the fan-out), so sizing
	// the per-worker scratch to that bound is always enough.
	scratch := make([][]float64, effectiveWorkers(chunks, w.Max))
	for i := range scratch {
		scratch[i] = make([]float64, k)
	}
	parallelForWorker(chunks, w, func(wk, c int) {
		vals := scratch[wk]
		lo := c * reduceChunk
		hi := lo + reduceChunk
		if hi > n {
			hi = n
		}
		for j := lo; j < hi; j++ {
			for i := 0; i < k; i++ {
				vals[i] = uploads[i][j]
			}
			out[j] = stat(vals)
		}
	})
	return out
}

// insertionSort sorts a small column in place — k is the per-round upload
// count (≤ tens), where insertion sort beats sort.Float64s and allocates
// nothing.
func insertionSort(vals []float64) {
	for i := 1; i < len(vals); i++ {
		v := vals[i]
		j := i - 1
		for j >= 0 && vals[j] > v {
			vals[j+1] = vals[j]
			j--
		}
		vals[j+1] = v
	}
}

// ReducerByName resolves the rules implemented in this package: "mean"
// (or empty), "trimmed"/"trimmed:<frac>" and "median". The Krum family
// lives in internal/core (it is built on the similarity-matrix kernels)
// and is resolved by core.ReducerByName, which falls back to this
// function for the coordinate-wise rules.
func ReducerByName(name string) (Reducer, error) {
	switch {
	case name == "" || name == "mean":
		return MeanReducer{}, nil
	case name == "median":
		return &MedianReducer{}, nil
	case name == "trimmed":
		return &TrimmedMeanReducer{}, nil
	case len(name) > len("trimmed:") && name[:len("trimmed:")] == "trimmed:":
		frac, err := strconv.ParseFloat(name[len("trimmed:"):], 64)
		if err != nil {
			return nil, fmt.Errorf("fl: bad trimmed fraction in %q: %w", name, err)
		}
		if !(frac > 0 && frac < 0.5) {
			return nil, fmt.Errorf("fl: trimmed fraction %v out of (0, 0.5)", frac)
		}
		return &TrimmedMeanReducer{Frac: frac}, nil
	}
	return nil, fmt.Errorf("fl: unknown reducer %q (want mean, trimmed[:frac] or median)", name)
}
