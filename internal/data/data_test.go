package data

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"fedcross/internal/tensor"
)

func smallVisionCfg(seed int64) VisionConfig {
	return VisionConfig{
		Classes: 4, Features: 12,
		TrainPerClass: 30, TestPerClass: 10,
		ModesPerClass: 2, Sep: 1.0, Noise: 0.3, Seed: seed,
	}
}

func TestGenerateVisionShapes(t *testing.T) {
	train, test := GenerateVision(smallVisionCfg(1))
	if train.Len() != 120 || test.Len() != 40 {
		t.Fatalf("sizes train=%d test=%d", train.Len(), test.Len())
	}
	if train.Features() != 12 || train.Classes != 4 {
		t.Fatalf("features=%d classes=%d", train.Features(), train.Classes)
	}
	counts := train.ClassCounts()
	for c, n := range counts {
		if n != 30 {
			t.Fatalf("class %d has %d samples, want 30", c, n)
		}
	}
	if !tensor.AllFinite(train.X.Data) {
		t.Fatal("non-finite value in generated data")
	}
}

func TestGenerateVisionDeterministic(t *testing.T) {
	a, _ := GenerateVision(smallVisionCfg(7))
	b, _ := GenerateVision(smallVisionCfg(7))
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatal("same seed must reproduce the dataset")
		}
	}
	c, _ := GenerateVision(smallVisionCfg(8))
	same := true
	for i := range a.X.Data {
		if a.X.Data[i] != c.X.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestVisionClassesSeparable(t *testing.T) {
	// A nearest-class-mean classifier on train means should beat chance
	// clearly on test data — i.e. the task is learnable.
	cfg := smallVisionCfg(3)
	train, test := GenerateVision(cfg)
	d := train.Features()
	means := make([][]float64, cfg.Classes)
	counts := make([]int, cfg.Classes)
	for i := range means {
		means[i] = make([]float64, d)
	}
	for i, y := range train.Y {
		counts[y]++
		for j := 0; j < d; j++ {
			means[y][j] += train.X.Data[i*d+j]
		}
	}
	for c := range means {
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for i, y := range test.Y {
		best, bestD := -1, math.Inf(1)
		for c := range means {
			dist := 0.0
			for j := 0; j < d; j++ {
				diff := test.X.Data[i*d+j] - means[c][j]
				dist += diff * diff
			}
			if dist < bestD {
				best, bestD = c, dist
			}
		}
		if best == y {
			correct++
		}
	}
	acc := float64(correct) / float64(test.Len())
	if acc < 0.5 {
		t.Fatalf("nearest-mean accuracy %v; task should beat 25%% chance clearly", acc)
	}
}

func TestSubsetAndBatch(t *testing.T) {
	train, _ := GenerateVision(smallVisionCfg(1))
	sub := train.Subset([]int{0, 5, 10})
	if sub.Len() != 3 {
		t.Fatalf("subset len %d", sub.Len())
	}
	// Mutating the subset must not touch the parent.
	sub.X.Data[0] = 12345
	if train.X.Data[0] == 12345 {
		t.Fatal("Subset aliases parent storage")
	}
	x, y := train.Batch([]int{1, 2})
	if x.Shape[0] != 2 || len(y) != 2 {
		t.Fatalf("batch shapes %v %d", x.Shape, len(y))
	}
}

func TestBatchesCoverEpochExactlyOnce(t *testing.T) {
	train, _ := GenerateVision(smallVisionCfg(1))
	rng := tensor.NewRNG(2)
	seen := 0
	var sizes []int
	train.Batches(rng, 32, func(x *tensor.Tensor, y []int) {
		seen += len(y)
		sizes = append(sizes, len(y))
	})
	if seen != train.Len() {
		t.Fatalf("epoch covered %d of %d samples", seen, train.Len())
	}
	for i, s := range sizes[:len(sizes)-1] {
		if s != 32 {
			t.Fatalf("batch %d has size %d, want 32", i, s)
		}
	}
}

func TestDirichletPartitionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		train, _ := GenerateVision(smallVisionCfg(seed))
		numClients := 2 + rng.Intn(8)
		beta := 0.1 + rng.Float64()
		shards := DirichletPartition(train, numClients, beta, rng)
		total := 0
		for _, s := range shards {
			total += s.Len()
			if s.Len() == 0 {
				return false // every client must have data
			}
		}
		return total == train.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDirichletSkewOrdering(t *testing.T) {
	// Smaller beta must produce more label skew, measured by the mean
	// per-client label-distribution distance from uniform.
	cfg := VisionConfig{Classes: 10, Features: 8, TrainPerClass: 100, TestPerClass: 1, ModesPerClass: 1, Sep: 1, Noise: 0.1, Seed: 5}
	train, _ := GenerateVision(cfg)
	skew := func(beta float64) float64 {
		rng := tensor.NewRNG(42)
		shards := DirichletPartition(train, 10, beta, rng)
		tot := 0.0
		for _, s := range shards {
			counts := s.ClassCounts()
			n := float64(s.Len())
			for _, c := range counts {
				p := float64(c) / n
				d := p - 0.1
				tot += d * d
			}
		}
		return tot
	}
	s01, s10 := skew(0.1), skew(10)
	if s01 <= s10 {
		t.Fatalf("beta=0.1 skew %v should exceed beta=10 skew %v", s01, s10)
	}
}

func TestIIDPartitionBalance(t *testing.T) {
	train, _ := GenerateVision(smallVisionCfg(1))
	rng := tensor.NewRNG(1)
	shards := IIDPartition(train, 6, rng)
	total := 0
	for _, s := range shards {
		total += s.Len()
		if s.Len() < train.Len()/6 || s.Len() > train.Len()/6+1 {
			t.Fatalf("IID shard size %d not balanced", s.Len())
		}
	}
	if total != train.Len() {
		t.Fatalf("IID covered %d of %d", total, train.Len())
	}
}

func TestHeterogeneityString(t *testing.T) {
	if got := (Heterogeneity{IID: true}).String(); got != "IID" {
		t.Fatalf("String = %q", got)
	}
	if got := (Heterogeneity{Beta: 0.5}).String(); got != "beta=0.5" {
		t.Fatalf("String = %q", got)
	}
}

func TestBuildVision(t *testing.T) {
	fed := BuildVision(smallVisionCfg(1), 5, Heterogeneity{Beta: 0.5}, 9)
	if fed.NumClients() != 5 {
		t.Fatalf("NumClients = %d", fed.NumClients())
	}
	if fed.TotalTrainSamples() != 120 {
		t.Fatalf("TotalTrainSamples = %d", fed.TotalTrainSamples())
	}
	m := fed.DistributionMatrix()
	if len(m) != 4 || len(m[0]) != 5 {
		t.Fatalf("DistributionMatrix dims %dx%d", len(m), len(m[0]))
	}
	sum := 0
	for _, row := range m {
		for _, v := range row {
			sum += v
		}
	}
	if sum != 120 {
		t.Fatalf("matrix total %d", sum)
	}
}

func TestBuildVisionAssignsFromLabelsAlone(t *testing.T) {
	// The builders partition from classMajorLabels while GenerateVision
	// runs, so the helper must be GenerateVision's label column — row r
	// is class r / TrainPerClass — and the shards what partitioning the
	// finished corpus gives.
	for _, cfg := range []VisionConfig{smallVisionCfg(1), DefaultVision10(2), DefaultVision100(3)} {
		train, _ := GenerateVision(cfg)
		if got := classMajorLabels(cfg.Classes, cfg.TrainPerClass); !slices.Equal(got, train.Y) {
			t.Fatalf("%d classes × %d: classMajorLabels differs from GenerateVision's labels", cfg.Classes, cfg.TrainPerClass)
		}
		for r, y := range train.Y {
			if y != r/cfg.TrainPerClass {
				t.Fatalf("%d classes × %d: row %d is class %d, want %d", cfg.Classes, cfg.TrainPerClass, r, y, r/cfg.TrainPerClass)
			}
		}
		for _, het := range []Heterogeneity{{Beta: 0.5}, {IID: true}} {
			want := het.Assign(train.Y, train.Classes, 7, tensor.NewRNG(5)).Materialize(train)
			got := BuildVision(cfg, 7, het, 5).Clients
			if len(got) != len(want) {
				t.Fatalf("%d classes, %v: %d clients, want %d", cfg.Classes, het, len(got), len(want))
			}
			for ci := range want {
				if !sameShard(got[ci], want[ci]) {
					t.Fatalf("%d classes, %v: client %d differs from the serial partition", cfg.Classes, het, ci)
				}
			}
		}
	}
}

func TestBuildVisionRaisesAssignmentPanic(t *testing.T) {
	// The assignment runs on a goroutine of its own; a bad argument must
	// still panic on the caller, after the join, with the value the
	// assignment raised.
	cfg := smallVisionCfg(1)
	labels := classMajorLabels(cfg.Classes, cfg.TrainPerClass)
	panicOf := func(fn func()) (v any) {
		defer func() { v = recover() }()
		fn()
		return nil
	}
	for _, tc := range []struct {
		n   int
		het Heterogeneity
	}{
		{0, Heterogeneity{Beta: 0.5}},
		{4, Heterogeneity{Beta: 0}},
		{4, Heterogeneity{Beta: -1}},
		{-1, Heterogeneity{IID: true}},
	} {
		want := panicOf(func() { tc.het.Assign(labels, cfg.Classes, tc.n, tensor.NewRNG(1)) })
		if want == nil {
			t.Fatalf("n=%d %v: the assignment accepted it", tc.n, tc.het)
		}
		for _, b := range []struct {
			name  string
			build func()
		}{
			{"BuildVision", func() { BuildVision(cfg, tc.n, tc.het, 9) }},
			{"BuildVisionLazy", func() { BuildVisionLazy(cfg, tc.n, tc.het, 9, 4, 0) }},
		} {
			if got := panicOf(b.build); got != want {
				t.Fatalf("%s n=%d %v: panicked with %v, want %v", b.name, tc.n, tc.het, got, want)
			}
		}
	}
}

func TestGenerateFEMNIST(t *testing.T) {
	cfg := FEMNISTConfig{Classes: 10, Features: 16, Writers: 8, MinSamples: 5, MaxSamples: 15, TestSamples: 40, StyleStrength: 0.3, Seed: 1}
	fed := GenerateFEMNIST(cfg)
	if fed.NumClients() != 8 {
		t.Fatalf("writers = %d", fed.NumClients())
	}
	for i, c := range fed.Clients {
		if c.Len() < 5 || c.Len() > 15 {
			t.Fatalf("writer %d has %d samples", i, c.Len())
		}
		for _, y := range c.Y {
			if y < 0 || y >= 10 {
				t.Fatalf("label %d out of range", y)
			}
		}
	}
	if fed.Test.Len() != 40 {
		t.Fatalf("test size %d", fed.Test.Len())
	}
	// Natural non-IID: at least one writer's class distribution is skewed.
	skewed := false
	for _, c := range fed.Clients {
		counts := c.ClassCounts()
		maxC := 0
		for _, v := range counts {
			if v > maxC {
				maxC = v
			}
		}
		if float64(maxC) > 2*float64(c.Len())/float64(cfg.Classes) {
			skewed = true
		}
	}
	if !skewed {
		t.Fatal("expected natural class skew across writers")
	}
}

func TestGenerateShakespeare(t *testing.T) {
	cfg := ShakespeareConfig{Vocab: 12, SeqLen: 5, Clients: 6, SamplesPerClient: 20, TestSamples: 30, Mix: 0.5, Seed: 2}
	fed := GenerateShakespeare(cfg)
	if fed.NumClients() != 6 || fed.Classes != 12 {
		t.Fatalf("clients=%d classes=%d", fed.NumClients(), fed.Classes)
	}
	for _, c := range fed.Clients {
		if c.Len() != 20 || c.Features() != 5 {
			t.Fatalf("shard %d x %d", c.Len(), c.Features())
		}
		for _, v := range c.X.Data {
			if v < 0 || v >= 12 || v != math.Trunc(v) {
				t.Fatalf("token %v not a valid id", v)
			}
		}
		for _, y := range c.Y {
			if y < 0 || y >= 12 {
				t.Fatalf("label %d out of vocab", y)
			}
		}
	}
}

func TestGenerateSent140(t *testing.T) {
	cfg := Sent140Config{Vocab: 20, SeqLen: 6, Clients: 5, SamplesPerClient: 30, TestSamples: 40, SentimentTokens: 4, Seed: 3}
	fed := GenerateSent140(cfg)
	if fed.Classes != 2 {
		t.Fatalf("classes = %d", fed.Classes)
	}
	sawPos, sawNeg := false, false
	for _, c := range fed.Clients {
		for _, y := range c.Y {
			switch y {
			case 0:
				sawNeg = true
			case 1:
				sawPos = true
			default:
				t.Fatalf("label %d not binary", y)
			}
		}
		for _, v := range c.X.Data {
			if v < 0 || v >= 20 {
				t.Fatalf("token %v out of vocab", v)
			}
		}
	}
	if !sawPos || !sawNeg {
		t.Fatal("expected both sentiment labels")
	}
	// Test-set labels are balanced by construction.
	counts := fed.Test.ClassCounts()
	if counts[0] != counts[1] {
		t.Fatalf("test labels unbalanced: %v", counts)
	}
}

func TestSent140SentimentSignal(t *testing.T) {
	// Counting polarity tokens should beat chance: the label signal must
	// actually be present in the tokens.
	cfg := DefaultSent140(4)
	fed := GenerateSent140(cfg)
	correct, total := 0, 0
	for i, y := range fed.Test.Y {
		pos, neg := 0, 0
		for t := 0; t < cfg.SeqLen; t++ {
			tok := int(fed.Test.X.Data[i*cfg.SeqLen+t])
			if tok < cfg.SentimentTokens {
				neg++ // label 0 tokens are [0,S)
			} else if tok < 2*cfg.SentimentTokens {
				pos++
			}
		}
		pred := 0
		if pos > neg {
			pred = 1
		}
		if pos != neg {
			total++
			if pred == y {
				correct++
			}
		}
	}
	if total == 0 || float64(correct)/float64(total) < 0.7 {
		t.Fatalf("token-count heuristic accuracy %d/%d; sentiment signal too weak", correct, total)
	}
}

func TestDirichletPartitionRejectsBadArgs(t *testing.T) {
	train, _ := GenerateVision(smallVisionCfg(1))
	rng := tensor.NewRNG(1)
	for _, fn := range []func(){
		func() { DirichletPartition(train, 0, 0.5, rng) },
		func() { DirichletPartition(train, 4, 0, rng) },
		func() { DirichletPartition(train, 4, math.NaN(), rng) },
		func() { DirichletPartition(train, 4, math.Inf(1), rng) },
		func() { IIDPartition(train, -1, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on invalid arguments")
				}
			}()
			fn()
		}()
	}
}
