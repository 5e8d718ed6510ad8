package nn

import (
	"fmt"
	"math"

	"fedcross/internal/tensor"
)

// Embedding maps token-ID sequences to dense vectors. Input is
// (batch × T) of integer IDs stored as float64; output is (batch × T·D)
// with the T embedding vectors concatenated, ready for an LSTM that knows
// T and D.
type Embedding struct {
	Vocab, D int
	W        *tensor.Tensor // (Vocab × D)
	dW       *tensor.Tensor

	ids []int
	t   int // sequence length of the last forward

	out, dx *tensor.Tensor // reused buffers
}

// NewEmbedding constructs an embedding table with N(0, 1/√D) entries.
func NewEmbedding(vocab, d int, rng *tensor.RNG) *Embedding {
	return &Embedding{
		Vocab: vocab, D: d,
		W:  rng.Randn(1/math.Sqrt(float64(d)), vocab, d),
		dW: tensor.Zeros(vocab, d),
	}
}

// Forward looks up each token's embedding row.
func (e *Embedding) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 {
		panic(fmt.Sprintf("nn: Embedding expects rank-2 (batch x T) input, got %v", x.Shape))
	}
	batch, t := x.Shape[0], x.Shape[1]
	e.t = t
	if cap(e.ids) < batch*t {
		e.ids = make([]int, batch*t)
	}
	e.ids = e.ids[:batch*t]
	e.out = tensor.Ensure(e.out, batch, t*e.D)
	out := e.out
	for i, raw := range x.Data {
		id := int(raw)
		if id < 0 || id >= e.Vocab {
			panic(fmt.Sprintf("nn: Embedding: token id %d out of vocab %d", id, e.Vocab))
		}
		e.ids[i] = id
		copy(out.Data[i*e.D:(i+1)*e.D], e.W.Data[id*e.D:(id+1)*e.D])
	}
	return out
}

// Backward scatters gradients into the embedding rows. The returned input
// gradient is zero (token IDs are not differentiable).
func (e *Embedding) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if grad.Shape[1] != e.t*e.D {
		panic(fmt.Sprintf("nn: Embedding.Backward: grad width %d, want %d", grad.Shape[1], e.t*e.D))
	}
	for i, id := range e.ids {
		src := grad.Data[i*e.D : (i+1)*e.D]
		dst := e.dW.Data[id*e.D : (id+1)*e.D]
		for j := range src {
			dst[j] += src[j]
		}
	}
	// Token IDs are not differentiable; the input gradient is always zero.
	e.dx = tensor.Ensure(e.dx, grad.Shape[0], e.t)
	e.dx.Zero()
	return e.dx
}

// Params returns {W}.
func (e *Embedding) Params() []*tensor.Tensor { return []*tensor.Tensor{e.W} }

// Grads returns {dW}.
func (e *Embedding) Grads() []*tensor.Tensor { return []*tensor.Tensor{e.dW} }
