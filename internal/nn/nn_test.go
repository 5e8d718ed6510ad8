package nn

import (
	"math"
	"testing"
	"testing/quick"

	"fedcross/internal/tensor"
)

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// Uniform logits over C classes => loss = ln C.
	logits := tensor.Zeros(2, 4)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	// Gradient rows sum to zero.
	for b := 0; b < 2; b++ {
		s := 0.0
		for j := 0; j < 4; j++ {
			s += grad.At(b, j)
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("grad row %d sums to %v", b, s)
		}
	}
}

func TestSoftmaxCrossEntropyConfident(t *testing.T) {
	logits := tensor.New([]float64{10, -10, -10}, 1, 3)
	loss, _ := SoftmaxCrossEntropy(logits, []int{0})
	if loss > 1e-6 {
		t.Fatalf("confident correct prediction should have ~0 loss, got %v", loss)
	}
	lossWrong, _ := SoftmaxCrossEntropy(logits, []int{1})
	if lossWrong < 10 {
		t.Fatalf("confident wrong prediction should have large loss, got %v", lossWrong)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		b, c := 1+rng.Intn(4), 2+rng.Intn(5)
		p := Softmax(rng.Randn(3, b, c))
		for i := 0; i < b; i++ {
			s := 0.0
			for j := 0; j < c; j++ {
				v := p.At(i, j)
				if v < 0 || v > 1 {
					return false
				}
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxStability(t *testing.T) {
	p := Softmax(tensor.New([]float64{1000, 1000, -1000}, 1, 3))
	if p.HasNaN() {
		t.Fatal("softmax overflowed")
	}
	if math.Abs(p.Data[0]-0.5) > 1e-9 {
		t.Fatalf("p[0] = %v, want 0.5", p.Data[0])
	}
}

func TestKLToTeacher(t *testing.T) {
	teacher := tensor.New([]float64{0.7, 0.2, 0.1}, 1, 3)
	logits := tensor.New([]float64{math.Log(0.7), math.Log(0.2), math.Log(0.1)}, 1, 3)
	loss, grad := KLToTeacher(teacher, logits)
	if math.Abs(loss) > 1e-9 {
		t.Fatalf("KL to self should be 0, got %v", loss)
	}
	for _, g := range grad.Data {
		if math.Abs(g) > 1e-9 {
			t.Fatalf("gradient at optimum should be 0, got %v", grad.Data)
		}
	}
	// KL to a different distribution is positive.
	other := tensor.New([]float64{0, 0, 0}, 1, 3)
	loss2, _ := KLToTeacher(teacher, other)
	if loss2 <= 0 {
		t.Fatalf("KL should be positive, got %v", loss2)
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.New([]float64{
		2, 1, 0,
		0, 5, 1,
		1, 0, 3,
	}, 3, 3)
	if got := Accuracy(logits, []int{0, 1, 2}); got != 1 {
		t.Fatalf("Accuracy = %v, want 1", got)
	}
	if got := Accuracy(logits, []int{1, 1, 1}); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("Accuracy = %v, want 1/3", got)
	}
	if got := Accuracy(tensor.Zeros(0, 3), nil); got != 0 {
		t.Fatalf("Accuracy on empty batch = %v", got)
	}
}

// TestAccuracyNaNLogitsCountAsWrong is the regression test for the
// NaN-blind argmax: a NaN in position 0 used to win the row (`v > bestV`
// is false for NaN), so garbage predictions were silently scored as
// class 0. NaN logits must lose deterministically, and an all-NaN row
// must count as an incorrect prediction for every label.
func TestAccuracyNaNLogitsCountAsWrong(t *testing.T) {
	nan := math.NaN()
	logits := tensor.New([]float64{
		nan, 1, 2, // valid argmax 2 despite leading NaN
		nan, nan, nan, // garbage row: no valid prediction
		3, nan, 1, // valid argmax 0 despite inner NaN
	}, 3, 3)
	if got := Accuracy(logits, []int{2, 0, 0}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Accuracy = %v, want 2/3 (all-NaN row must score wrong)", got)
	}
	// Before the fix the first row scored label 0 and the garbage row
	// scored label 0; pin that neither happens.
	if got := Accuracy(logits, []int{0, 0, 1}); got != 0 {
		t.Fatalf("Accuracy = %v, want 0 (NaN rows must never score class 0)", got)
	}
}

func TestSGDReducesLossOnConvexProblem(t *testing.T) {
	rng := tensor.NewRNG(20)
	net := NewSequential(NewLinear(3, 2, rng))
	opt := NewSGD(0.1, 0.5)
	x := rng.Randn(1, 16, 3)
	labels := make([]int, 16)
	for i := range labels {
		if x.At(i, 0) > 0 {
			labels[i] = 1
		}
	}
	first := lossOf(net, x, labels)
	for step := 0; step < 200; step++ {
		net.ZeroGrads()
		logits := net.Forward(x)
		_, grad := SoftmaxCrossEntropy(logits, labels)
		net.Backward(grad)
		opt.Step(net.Params(), net.Grads())
	}
	last := lossOf(net, x, labels)
	if last >= first*0.5 {
		t.Fatalf("SGD did not reduce loss: %v -> %v", first, last)
	}
}

func TestSGDWeightDecayShrinksParams(t *testing.T) {
	rng := tensor.NewRNG(21)
	net := NewSequential(NewLinear(4, 4, rng))
	opt := NewSGD(0.1, 0)
	opt.WeightDecay = 0.5
	before := FlattenParams(net.Params()).Norm()
	// Zero gradient steps: only decay acts.
	net.ZeroGrads()
	for i := 0; i < 10; i++ {
		opt.Step(net.Params(), net.Grads())
	}
	after := FlattenParams(net.Params()).Norm()
	if after >= before {
		t.Fatalf("weight decay should shrink norm: %v -> %v", before, after)
	}
}

func TestFlattenLoadRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		net := NewSequential(NewLinear(3, 4, rng), NewLinear(4, 2, rng))
		orig := FlattenParams(net.Params())
		perturbed := orig.Clone()
		for i := range perturbed {
			perturbed[i] += 1
		}
		if err := LoadParams(net.Params(), perturbed); err != nil {
			return false
		}
		back := FlattenParams(net.Params())
		for i := range back {
			if back[i] != perturbed[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadParamsSizeMismatch(t *testing.T) {
	rng := tensor.NewRNG(1)
	net := NewSequential(NewLinear(3, 3, rng))
	if err := LoadParams(net.Params(), make(ParamVector, 5)); err == nil {
		t.Fatal("expected size-mismatch error")
	}
}

func TestParamVectorAlgebra(t *testing.T) {
	v := ParamVector{1, 2, 3}
	w := ParamVector{4, 5, 6}
	if got := v.Add(w); got[0] != 5 || got[2] != 9 {
		t.Fatalf("Add = %v", got)
	}
	if got := v.Sub(w); got[0] != -3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := v.Scale(2); got[1] != 4 {
		t.Fatalf("Scale = %v", got)
	}
	if got := v.Dot(w); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	if got := v.DistanceSq(w); got != 27 {
		t.Fatalf("DistanceSq = %v", got)
	}
	u := v.Clone()
	u.AXPY(2, w)
	if u[0] != 9 {
		t.Fatalf("AXPY = %v", u)
	}
	if v[0] != 1 {
		t.Fatal("Clone must not alias")
	}
}

func TestLerpEndpointsAndMidpoint(t *testing.T) {
	v := ParamVector{0, 0}
	w := ParamVector{2, 4}
	if got := v.Lerp(w, 1); got[0] != 0 || got[1] != 0 {
		t.Fatalf("Lerp(1) = %v, want v", got)
	}
	if got := v.Lerp(w, 0); got[0] != 2 || got[1] != 4 {
		t.Fatalf("Lerp(0) = %v, want w", got)
	}
	if got := v.Lerp(w, 0.75); got[0] != 0.5 || got[1] != 1 {
		t.Fatalf("Lerp(0.75) = %v", got)
	}
}

func TestMeanVectors(t *testing.T) {
	vs := []ParamVector{{1, 2}, {3, 4}, {5, 6}}
	m := MeanVectors(vs)
	if m[0] != 3 || m[1] != 4 {
		t.Fatalf("MeanVectors = %v", m)
	}
}

func TestWeightedMeanVectors(t *testing.T) {
	vs := []ParamVector{{0, 0}, {10, 10}}
	m := WeightedMeanVectors(vs, []float64{1, 3})
	if m[0] != 7.5 {
		t.Fatalf("WeightedMeanVectors = %v", m)
	}
	// Zero weights fall back to uniform.
	m2 := WeightedMeanVectors(vs, []float64{0, 0})
	if m2[0] != 5 {
		t.Fatalf("zero-weight fallback = %v", m2)
	}
}

func TestMeanVectorsProperty(t *testing.T) {
	// Mean of K copies of v is v.
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		n := 1 + rng.Intn(10)
		k := 1 + rng.Intn(5)
		v := make(ParamVector, n)
		for i := range v {
			v[i] = rng.Normal(0, 1)
		}
		vs := make([]ParamVector, k)
		for i := range vs {
			vs[i] = v
		}
		m := MeanVectors(vs)
		for i := range m {
			if math.Abs(m[i]-v[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialNesting(t *testing.T) {
	rng := tensor.NewRNG(30)
	inner := NewSequential(NewLinear(4, 4, rng), NewReLU())
	outer := NewSequential(inner, NewLinear(4, 2, rng))
	if got := len(outer.Params()); got != 4 {
		t.Fatalf("nested params = %d, want 4", got)
	}
	x := rng.Randn(1, 2, 4)
	y := outer.Forward(x)
	if y.Shape[0] != 2 || y.Shape[1] != 2 {
		t.Fatalf("output shape %v", y.Shape)
	}
	if outer.NumParams() != 4*4+4+4*2+2 {
		t.Fatalf("NumParams = %d", outer.NumParams())
	}
}

func TestZeroGrads(t *testing.T) {
	rng := tensor.NewRNG(31)
	net := NewSequential(NewLinear(3, 2, rng))
	x := rng.Randn(1, 2, 3)
	logits := net.Forward(x)
	_, g := SoftmaxCrossEntropy(logits, []int{0, 1})
	net.Backward(g)
	nonzero := false
	for _, gr := range net.Grads() {
		if gr.MaxAbs() > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("expected nonzero grads after backward")
	}
	net.ZeroGrads()
	for _, gr := range net.Grads() {
		if gr.MaxAbs() != 0 {
			t.Fatal("ZeroGrads left residue")
		}
	}
}

func TestLSTMShapeAndDeterminism(t *testing.T) {
	rng := tensor.NewRNG(32)
	l := NewLSTM(3, 2, 4, rng)
	x := rng.Randn(1, 5, 6)
	y1 := l.Forward(x)
	y2 := l.Forward(x)
	if y1.Shape[0] != 5 || y1.Shape[1] != 4 {
		t.Fatalf("LSTM output shape %v", y1.Shape)
	}
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatal("LSTM forward must be deterministic")
		}
	}
}

func TestEmbeddingLookup(t *testing.T) {
	rng := tensor.NewRNG(33)
	e := NewEmbedding(5, 3, rng)
	x := tensor.New([]float64{2, 4}, 1, 2)
	y := e.Forward(x)
	for j := 0; j < 3; j++ {
		if y.Data[j] != e.W.At(2, j) {
			t.Fatal("embedding lookup row 2 mismatch")
		}
		if y.Data[3+j] != e.W.At(4, j) {
			t.Fatal("embedding lookup row 4 mismatch")
		}
	}
}

func TestEmbeddingOutOfVocabPanics(t *testing.T) {
	rng := tensor.NewRNG(34)
	e := NewEmbedding(5, 3, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-vocab id")
		}
	}()
	e.Forward(tensor.New([]float64{7}, 1, 1))
}
