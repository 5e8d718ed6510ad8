package nn

import (
	"fmt"
	"math"

	"fedcross/internal/tensor"
)

// LSTM is a single-layer LSTM that consumes a whole sequence and emits the
// final hidden state. Input is (batch × T·D) — T concatenated D-wide steps,
// as produced by Embedding — and output is (batch × H). Backward runs full
// backpropagation through time.
type LSTM struct {
	T, D, H int

	Wx *tensor.Tensor // (D × 4H), gate order [i f g o]
	Wh *tensor.Tensor // (H × 4H)
	B  *tensor.Tensor // (4H)

	dWx, dWh, dB *tensor.Tensor

	// Per-forward caches, one entry per timestep, recycled across calls
	// via tensor.Ensure so steady-state batches allocate nothing.
	xs    []*tensor.Tensor // (B × D) input slices
	hs    []*tensor.Tensor // (B × H) hidden states, hs[0] is h_{-1}=0
	cs    []*tensor.Tensor // (B × H) cell states, cs[0] is c_{-1}=0
	gates []*tensor.Tensor // (B × 4H) post-activation gates
	tanhC []*tensor.Tensor // (B × H) tanh(c_t)
	batch int

	// Single-step scratch buffers (forward: a; backward: the rest).
	a, da, dh, dc, dxt, dx *tensor.Tensor
}

// NewLSTM constructs an LSTM for sequences of T steps of width D with H
// hidden units. The forget-gate bias is initialised to 1, the standard
// trick for stable early training.
func NewLSTM(t, d, h int, rng *tensor.RNG) *LSTM {
	if t <= 0 || d <= 0 || h <= 0 {
		panic(fmt.Sprintf("nn: LSTM: non-positive dims T=%d D=%d H=%d", t, d, h))
	}
	bx := math.Sqrt(6.0 / float64(d+4*h))
	bh := math.Sqrt(6.0 / float64(h+4*h))
	l := &LSTM{
		T: t, D: d, H: h,
		Wx:  rng.Uniform(-bx, bx, d, 4*h),
		Wh:  rng.Uniform(-bh, bh, h, 4*h),
		B:   tensor.Zeros(4 * h),
		dWx: tensor.Zeros(d, 4*h),
		dWh: tensor.Zeros(h, 4*h),
		dB:  tensor.Zeros(4 * h),
	}
	for j := h; j < 2*h; j++ { // forget gate slice
		l.B.Data[j] = 1
	}
	return l
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// ensureSteps grows a per-timestep cache to n entries with the given
// element shape, recycling existing buffers.
func ensureSteps(ts []*tensor.Tensor, n, rows, cols int) []*tensor.Tensor {
	for len(ts) < n {
		ts = append(ts, nil)
	}
	for i := 0; i < n; i++ {
		ts[i] = tensor.Ensure(ts[i], rows, cols)
	}
	return ts
}

// Forward runs the recurrence over all T steps and returns the last hidden
// state.
func (l *LSTM) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkBatch("LSTM", x, l.T*l.D)
	batch := x.Shape[0]
	l.batch = batch
	h4 := 4 * l.H

	l.xs = ensureSteps(l.xs, l.T, batch, l.D)
	l.hs = ensureSteps(l.hs, l.T+1, batch, l.H)
	l.cs = ensureSteps(l.cs, l.T+1, batch, l.H)
	l.gates = ensureSteps(l.gates, l.T, batch, h4)
	l.tanhC = ensureSteps(l.tanhC, l.T, batch, l.H)
	l.hs[0].Zero()
	l.cs[0].Zero()
	l.a = tensor.Ensure(l.a, batch, h4)

	for t := 0; t < l.T; t++ {
		// Slice out step t of each sample into a (B × D) matrix.
		xt := l.xs[t]
		for b := 0; b < batch; b++ {
			copy(xt.Data[b*l.D:(b+1)*l.D], x.Data[b*l.T*l.D+t*l.D:b*l.T*l.D+(t+1)*l.D])
		}

		a := tensor.MatMulTo(l.a, xt, l.Wx)
		tensor.MatMulAcc(a, l.hs[t], l.Wh)
		tensor.AddRowTo(a, a, l.B)

		gate, ct, ht, tc := l.gates[t], l.cs[t+1], l.hs[t+1], l.tanhC[t]
		prevC := l.cs[t]
		for b := 0; b < batch; b++ {
			arow := a.Data[b*h4 : (b+1)*h4]
			grow := gate.Data[b*h4 : (b+1)*h4]
			for j := 0; j < l.H; j++ {
				i := sigmoid(arow[j])
				f := sigmoid(arow[l.H+j])
				g := math.Tanh(arow[2*l.H+j])
				o := sigmoid(arow[3*l.H+j])
				grow[j], grow[l.H+j], grow[2*l.H+j], grow[3*l.H+j] = i, f, g, o
				c := f*prevC.Data[b*l.H+j] + i*g
				ct.Data[b*l.H+j] = c
				th := math.Tanh(c)
				tc.Data[b*l.H+j] = th
				ht.Data[b*l.H+j] = o * th
			}
		}
	}
	return l.hs[l.T]
}

// Backward backpropagates through time from the final hidden state.
func (l *LSTM) Backward(grad *tensor.Tensor) *tensor.Tensor {
	checkBatch("LSTM.Backward", grad, l.H)
	checkGradBatch("LSTM", grad, l.a)
	batch := l.batch
	h4 := 4 * l.H
	l.dx = tensor.Ensure(l.dx, batch, l.T*l.D)
	l.dh = tensor.Ensure(l.dh, batch, l.H)
	copy(l.dh.Data, grad.Data)
	l.dc = tensor.Ensure(l.dc, batch, l.H)
	l.dc.Zero()
	l.da = tensor.Ensure(l.da, batch, h4)
	l.dxt = tensor.Ensure(l.dxt, batch, l.D)
	dx, dh, dc, da, dxt := l.dx, l.dh, l.dc, l.da, l.dxt

	for t := l.T - 1; t >= 0; t-- {
		gate := l.gates[t]
		prevC := l.cs[t]
		for b := 0; b < batch; b++ {
			grow := gate.Data[b*h4 : (b+1)*h4]
			darow := da.Data[b*h4 : (b+1)*h4]
			for j := 0; j < l.H; j++ {
				i, f, g, o := grow[j], grow[l.H+j], grow[2*l.H+j], grow[3*l.H+j]
				th := l.tanhC[t].Data[b*l.H+j]
				dhv := dh.Data[b*l.H+j]
				do := dhv * th
				dcv := dc.Data[b*l.H+j] + dhv*o*(1-th*th)
				di := dcv * g
				dg := dcv * i
				df := dcv * prevC.Data[b*l.H+j]
				dc.Data[b*l.H+j] = dcv * f // becomes dc_{t-1}
				darow[j] = di * i * (1 - i)
				darow[l.H+j] = df * f * (1 - f)
				darow[2*l.H+j] = dg * (1 - g*g)
				darow[3*l.H+j] = do * o * (1 - o)
			}
		}
		// Parameter gradients.
		tensor.MatMulTransAAcc(l.dWx, l.xs[t], da)
		tensor.MatMulTransAAcc(l.dWh, l.hs[t], da)
		tensor.ColSumAcc(l.dB, da)
		// Input and recurrent gradients. dh's previous value was fully
		// consumed above, so it can be overwritten in place.
		tensor.MatMulTransBTo(dxt, da, l.Wx)
		for b := 0; b < batch; b++ {
			copy(dx.Data[b*l.T*l.D+t*l.D:b*l.T*l.D+(t+1)*l.D], dxt.Data[b*l.D:(b+1)*l.D])
		}
		tensor.MatMulTransBTo(dh, da, l.Wh)
	}
	return dx
}

// Params returns {Wx, Wh, B}.
func (l *LSTM) Params() []*tensor.Tensor { return []*tensor.Tensor{l.Wx, l.Wh, l.B} }

// Grads returns {dWx, dWh, dB}.
func (l *LSTM) Grads() []*tensor.Tensor { return []*tensor.Tensor{l.dWx, l.dWh, l.dB} }
