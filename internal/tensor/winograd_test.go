package tensor

import (
	"fmt"
	"math"
	"testing"
)

// winoCNN is the CNN's two convolutions: 3 → 8 channels on 8 × 8 planes,
// then 8 → 16 on 4 × 4 (models.CNN, each followed by a folded pool).
var winoCNN = []struct {
	name            string
	inC, side, outC int
}{{"conv1", 3, 8, 8}, {"conv2", 8, 4, 16}}

// winoSetup builds a convolution of the given shape with normal filters,
// input and output gradient, and runs one Forward so that GradParams has
// tiles to read.
func winoSetup(inC, side, outC, batch int, rng *RNG) (p *Winograd, w []float64, dy []float32) {
	g := ConvGeom{InC: inC, InH: side, InW: side, KH: 3, KW: 3, Stride: 1, Pad: 1}
	padded := (side + 2) * (side + 2)
	normals := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Normal(0, 1)
		}
		return v
	}
	narrow := func(v []float64) []float32 {
		f := make([]float32, len(v))
		for i, x := range v {
			f[i] = float32(x)
		}
		return f
	}
	p = NewWinograd(g, outC)
	w = normals(outC * inC * 9)
	p.SetWeights(w)
	p.Forward(make([]float64, batch*outC*side*side), narrow(normals(batch*inC*padded)), normals(outC), batch)
	return p, w, narrow(normals(batch * outC * padded))
}

// BenchmarkWinogradCNN times what a training step asks of the CNN's two
// convolutions, call by call, at a full batch of 50, the mean batch of
// sync_cnn_noniid's client epochs (34) and a short one (10): the filter
// transform (SetWeights, which also writes the input gradient's flipped
// filters), the parameter gradients with the transform back (GradParams,
// and the transform back alone, winoGrads) and the input gradient
// (GradInput).
//
//	go test -run xxx -bench WinogradCNN ./internal/tensor
func BenchmarkWinogradCNN(b *testing.B) {
	for _, c := range winoCNN {
		for _, batch := range []int{50, 34, 10} {
			p, w, dy := winoSetup(c.inC, c.side, c.outC, batch, NewRNG(1))
			dW, dB := make([]float64, len(w)), make([]float64, c.outC)
			dx := make([]float64, batch*c.inC*c.side*c.side)
			name := fmt.Sprintf("%s/batch=%d/", c.name, batch)
			b.Run(name+"SetWeights", func(b *testing.B) {
				for range b.N {
					p.SetWeights(w)
				}
			})
			b.Run(name+"GradParams", func(b *testing.B) {
				for range b.N {
					p.GradParams(dW, dB, dy, batch)
				}
			})
			b.Run(name+"winoGrads", func(b *testing.B) {
				for range b.N {
					winoGrads(dW, dB, p.mw, p.db, p.inC, p.outC, p.vec)
				}
			})
			b.Run(name+"GradInput", func(b *testing.B) {
				for range b.N {
					p.GradInput(dx, dy, batch)
				}
			})
		}
	}
}

// TestGradParamsRunsMatchTwin holds GradParams to GradParamsGo bit for
// bit on the CNN's two convolutions at batches whose groups make one run
// of groups (the weight-gradient lanes start and collapse in registers,
// and acc is never sized), two (a first and a last run) and several
// (middle runs carry through acc), with a NaN, both infinities and a −0
// among the inputs and the output gradient.
func TestGradParamsRunsMatchTwin(t *testing.T) {
	for i, c := range winoCNN {
		for k, batch := range [][3]int{{2, 4, 50}, {34, 50, 90}}[i] {
			rng := NewRNG(int64(batch))
			p, w, dy := winoSetup(c.inC, c.side, c.outC, batch, rng)
			runs := ((batch*p.qs+1)/2 + p.gradRun() - 1) / p.gradRun()
			in := make([]float32, batch*c.inC*(c.side+2)*(c.side+2))
			for i := range in {
				in[i] = float32(rng.Normal(0, 1))
			}
			in[len(in)/3], in[len(in)/2] = float32(math.Inf(1)), float32(math.Inf(-1))
			in[len(in)-c.side-4] = float32(math.Copysign(0, -1))
			dy[len(dy)/4], dy[len(dy)-c.side-4] = float32(math.NaN()), float32(math.Copysign(0, -1))
			p.Forward(make([]float64, batch*c.outC*c.side*c.side), in, make([]float64, c.outC), batch)
			got, want := make([]float64, len(w)+c.outC), make([]float64, len(w)+c.outC)
			p.GradParams(got[:len(w)], got[len(w):], dy, batch)
			if runs == 1 && p.acc != nil {
				t.Errorf("%s batch %d: one run of groups sized acc", c.name, batch)
			}
			p.GradParamsGo(want[:len(w)], want[len(w):], dy, batch)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s batch %d (%d runs): gradient %d is %v (%#x), twin %v (%#x)", c.name, batch, runs, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
			if runs != k+1 && (k < 2 || runs < 3) {
				t.Errorf("%s batch %d: %d runs of groups, want %d", c.name, batch, runs, k+1)
			}
		}
	}
}
