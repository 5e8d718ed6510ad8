package nn

import (
	"fmt"
	"math"

	"fedcross/internal/tensor"
)

// ParamVector is a model's full parameter set flattened into one vector.
// The FL layer manipulates models exclusively through ParamVectors:
// aggregation, similarity, and dispatch are all vector operations, which
// keeps every algorithm model-architecture-agnostic.
type ParamVector []float64

// FlattenParams copies the given parameter tensors into a single vector.
func FlattenParams(params []*tensor.Tensor) ParamVector {
	n := 0
	for _, p := range params {
		n += p.Len()
	}
	return FlattenParamsInto(make(ParamVector, n), params)
}

// FlattenParamsInto copies the parameter tensors into dst, whose length
// must equal the total element count, and returns dst. It is the
// zero-allocation form of FlattenParams for recycled upload buffers.
func FlattenParamsInto(dst ParamVector, params []*tensor.Tensor) ParamVector {
	off := 0
	for _, p := range params {
		n := p.Len()
		if off+n > len(dst) {
			panic(fmt.Sprintf("nn: FlattenParamsInto: destination length %d too short", len(dst)))
		}
		copy(dst[off:off+n], p.Data)
		off += n
	}
	if off != len(dst) {
		panic(fmt.Sprintf("nn: FlattenParamsInto: destination length %d, model has %d", len(dst), off))
	}
	return dst
}

// LoadParams copies vec back into the parameter tensors. It returns an
// error when the total element counts disagree.
func LoadParams(params []*tensor.Tensor, vec ParamVector) error {
	n := 0
	for _, p := range params {
		n += p.Len()
	}
	if n != len(vec) {
		return fmt.Errorf("nn: LoadParams: vector has %d elements, model wants %d", len(vec), n)
	}
	off := 0
	for _, p := range params {
		copy(p.Data, vec[off:off+p.Len()])
		off += p.Len()
	}
	return nil
}

// Clone returns a deep copy of v.
func (v ParamVector) Clone() ParamVector {
	out := make(ParamVector, len(v))
	copy(out, v)
	return out
}

// Lerp returns alpha*v + (1-alpha)*w, the cross-aggregation primitive.
func (v ParamVector) Lerp(w ParamVector, alpha float64) ParamVector {
	out := make(ParamVector, len(v))
	LerpVectorsTo(out, v, w, alpha)
	return out
}

// LerpVectorsTo computes dst = alpha*v + (1-alpha)*w without allocating.
// dst may alias v or w.
func LerpVectorsTo(dst, v, w ParamVector, alpha float64) {
	if len(v) != len(w) || len(dst) != len(v) {
		panic(fmt.Sprintf("nn: LerpVectorsTo length mismatch dst %d, v %d, w %d", len(dst), len(v), len(w)))
	}
	beta := 1 - alpha
	for i := range dst {
		dst[i] = alpha*v[i] + beta*w[i]
	}
}

// Add returns v + w.
func (v ParamVector) Add(w ParamVector) ParamVector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("nn: ParamVector.Add length mismatch %d vs %d", len(v), len(w)))
	}
	out := make(ParamVector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w.
func (v ParamVector) Sub(w ParamVector) ParamVector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("nn: ParamVector.Sub length mismatch %d vs %d", len(v), len(w)))
	}
	out := make(ParamVector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns s*v.
func (v ParamVector) Scale(s float64) ParamVector {
	out := make(ParamVector, len(v))
	for i := range v {
		out[i] = s * v[i]
	}
	return out
}

// AXPY adds alpha*w to v in place.
func (v ParamVector) AXPY(alpha float64, w ParamVector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("nn: ParamVector.AXPY length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += alpha * w[i]
	}
}

// The reduction kernels below (Dot, NormSq, DotNorms, DistanceSq) share
// one accumulation scheme: four independent partial-sum streams fed in a
// fixed index pattern (stream j takes indices ≡ j mod 4, the remainder
// rides stream 0), reduced in the fixed order (s0+s1)+(s2+s3). The streams
// break the loop-carried add dependency, and because every consumer uses
// the same pattern, fused and separate passes produce bit-identical sums.
// The order now has three implementations that must agree: the scalar
// kernels here, and tensor.DotTile's scalar twin and AVX2 assembly, whose
// lanes are these four streams run for eight pairs at once under core's
// tiled Gram pass. Dot is the reference the other two are held to
// (core's TestGramTileMatchesDot); changing the order here changes every
// pinned history.

// Dot returns the inner product of v and w.
func (v ParamVector) Dot(w ParamVector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("nn: ParamVector.Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(v); i += 4 {
		s0 += v[i] * w[i]
		s1 += v[i+1] * w[i+1]
		s2 += v[i+2] * w[i+2]
		s3 += v[i+3] * w[i+3]
	}
	for ; i < len(v); i++ {
		s0 += v[i] * w[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// NormSq returns ‖v‖², bit-identical to v.Dot(v).
func (v ParamVector) NormSq() float64 { return v.Dot(v) }

// Norm returns the L2 norm of v.
func (v ParamVector) Norm() float64 { return math.Sqrt(v.NormSq()) }

// DotNorms returns dot(v,w), ‖v‖² and ‖w‖² in one fused pass over both
// vectors — the one-shot similarity kernel (a cosine needs all three).
// Each result is bit-identical to the corresponding separate call.
func (v ParamVector) DotNorms(w ParamVector) (dot, vv, ww float64) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("nn: ParamVector.DotNorms length mismatch %d vs %d", len(v), len(w)))
	}
	var d0, d1, d2, d3 float64
	var a0, a1, a2, a3 float64
	var b0, b1, b2, b3 float64
	i := 0
	for ; i+4 <= len(v); i += 4 {
		x0, x1, x2, x3 := v[i], v[i+1], v[i+2], v[i+3]
		y0, y1, y2, y3 := w[i], w[i+1], w[i+2], w[i+3]
		d0 += x0 * y0
		d1 += x1 * y1
		d2 += x2 * y2
		d3 += x3 * y3
		a0 += x0 * x0
		a1 += x1 * x1
		a2 += x2 * x2
		a3 += x3 * x3
		b0 += y0 * y0
		b1 += y1 * y1
		b2 += y2 * y2
		b3 += y3 * y3
	}
	for ; i < len(v); i++ {
		d0 += v[i] * w[i]
		a0 += v[i] * v[i]
		b0 += w[i] * w[i]
	}
	return (d0 + d1) + (d2 + d3), (a0 + a1) + (a2 + a3), (b0 + b1) + (b2 + b3)
}

// DistanceSq returns ‖v-w‖², the quantity Lemma 3.4's contraction bounds.
func (v ParamVector) DistanceSq(w ParamVector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("nn: ParamVector.DistanceSq length mismatch %d vs %d", len(v), len(w)))
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(v); i += 4 {
		e0 := v[i] - w[i]
		e1 := v[i+1] - w[i+1]
		e2 := v[i+2] - w[i+2]
		e3 := v[i+3] - w[i+3]
		s0 += e0 * e0
		s1 += e1 * e1
		s2 += e2 * e2
		s3 += e3 * e3
	}
	for ; i < len(v); i++ {
		d := v[i] - w[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// MeanVectors averages a non-empty set of equal-length vectors — the
// GlobalModelGen / FedAvg primitive.
func MeanVectors(vs []ParamVector) ParamVector {
	if len(vs) == 0 {
		panic("nn: MeanVectors of empty set")
	}
	out := make(ParamVector, len(vs[0]))
	MeanVectorsTo(out, vs)
	return out
}

// MeanVectorsTo computes the mean of vs into dst without allocating. dst
// may be vs[0] itself but must not alias any later vector, because dst is
// seeded from vs[0] before the rest accumulate.
func MeanVectorsTo(dst ParamVector, vs []ParamVector) {
	if len(vs) == 0 {
		panic("nn: MeanVectorsTo of empty set")
	}
	if len(dst) != len(vs[0]) {
		panic(fmt.Sprintf("nn: MeanVectorsTo destination length %d, want %d", len(dst), len(vs[0])))
	}
	copy(dst, vs[0])
	for _, v := range vs[1:] {
		if len(v) != len(dst) {
			panic(fmt.Sprintf("nn: MeanVectorsTo length mismatch %d vs %d", len(v), len(dst)))
		}
		for i := range v {
			dst[i] += v[i]
		}
	}
	inv := 1 / float64(len(vs))
	for i := range dst {
		dst[i] *= inv
	}
}

// WeightedMeanVectors averages vectors with the given non-negative weights
// (normalised internally). Used for sample-size-weighted FedAvg.
func WeightedMeanVectors(vs []ParamVector, weights []float64) ParamVector {
	if len(vs) == 0 || len(vs) != len(weights) {
		panic(fmt.Sprintf("nn: WeightedMeanVectors: %d vectors, %d weights", len(vs), len(weights)))
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("nn: WeightedMeanVectors: negative weight")
		}
		total += w
	}
	if total == 0 {
		return MeanVectors(vs)
	}
	out := make(ParamVector, len(vs[0]))
	for k, v := range vs {
		w := weights[k] / total
		for i := range v {
			out[i] += w * v[i]
		}
	}
	return out
}
