package data

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"

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
		shards := AssignDirichlet(train.Y, train.Classes, numClients, beta, rng).Materialize(train)
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
		shards := AssignDirichlet(train.Y, train.Classes, 10, beta, rng).Materialize(train)
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
	shards := AssignIID(train.Len(), 6, rng).Materialize(train)
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
	for _, cfg := range []VisionConfig{smallVisionCfg(1), {
		Classes: 10, Features: 192, TrainPerClass: 100, TestPerClass: 25,
		ModesPerClass: 3, Sep: 1.0, Noise: 0.55, Seed: 2,
	}, {
		Classes: 100, Features: 192, TrainPerClass: 12, TestPerClass: 4,
		ModesPerClass: 2, Sep: 1.0, Noise: 0.55, Seed: 3,
	}} {
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

// serialDraw is GenerateVision's draws written out as one serial pass,
// every draw one rng.Normal or rng.Intn call in its stream's order: the
// train and test sets with each feature at its undistorted value v, and
// the distortion's phase.
func serialDraw(cfg VisionConfig) (train, test *Dataset, phase []float64) {
	normals := func(rng *tensor.RNG, n int, std float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Normal(0, std)
		}
		return v
	}
	rng := tensor.NewRNG(cfg.Seed)
	means := make([][]float64, cfg.Classes)
	modeOff := make([][][]float64, cfg.Classes)
	for c := range means {
		means[c] = normals(rng, cfg.Features, cfg.Sep)
		modeOff[c] = make([][]float64, cfg.ModesPerClass)
		for m := range modeOff[c] {
			modeOff[c][m] = normals(rng, cfg.Features, cfg.Sep*0.8)
		}
	}
	phase = normals(rng, cfg.Features, math.Pi)
	trainRNG, testRNG := rng.Split(), rng.Split()
	set := func(rng *tensor.RNG, perClass int) *Dataset {
		y := classMajorLabels(cfg.Classes, perClass)
		x := make([]float64, 0, len(y)*cfg.Features)
		for _, c := range y {
			m := rng.Intn(cfg.ModesPerClass)
			for i := range cfg.Features {
				x = append(x, means[c][i]+modeOff[c][m][i]+rng.Normal(0, cfg.Noise))
			}
		}
		return &Dataset{X: tensor.New(x, len(y), cfg.Features), Y: y, Classes: cfg.Classes}
	}
	return set(trainRNG, cfg.TrainPerClass), set(testRNG, cfg.TestPerClass), phase
}

// serialVision is serialDraw with each feature distorted by math.Sin:
// GenerateVision as one serial pass.
func serialVision(cfg VisionConfig) (train, test *Dataset) {
	train, test, phase := serialDraw(cfg)
	for _, d := range []*Dataset{train, test} {
		for j, v := range d.X.Data {
			d.X.Data[j] = v + 0.4*math.Sin(2*v+phase[j%len(phase)])
		}
	}
	return train, test
}

// TestBuildVisionMatchesMaterialize holds the eager build, which
// finishes each train row straight into its client's slot, to the serial
// build written out (serialVision) and partitioned by
// Assignment.Materialize. Shards and test set must be equal bit for bit,
// each shard a window of exactly its own length, over Dir(β) with top-up
// overlay clients and IID, 1, 100 and 511 clients, and GOMAXPROCS 1, 2
// and 3, as built and with the layout held back.
func TestBuildVisionMatchesMaterialize(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	same := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for _, cfg := range []VisionConfig{
		{Classes: 10, Features: 192, TrainPerClass: 40, TestPerClass: 5, ModesPerClass: 4, Sep: 1, Noise: 0.6, Seed: 3},
		{Classes: 4, Features: 13, TrainPerClass: 90, TestPerClass: 3, ModesPerClass: 2, Sep: 1, Noise: 0.3, Seed: 4},
	} {
		train, test := serialVision(cfg)
		for _, n := range []int{1, 100, 511} {
			for _, het := range []Heterogeneity{{Beta: 0.1}, {IID: true}} {
				asg := het.Assign(train.Y, cfg.Classes, n, tensor.NewRNG(int64(n)))
				if n > 1 && !het.IID && len(asg.overlay) == 0 {
					t.Fatalf("%d classes, %d clients, %v: no top-up client to cover", cfg.Classes, n, het)
				}
				want := asg.Materialize(train)
				// late is the eager build with its layout held back, so
				// that the producer draws rows into blocks of its own
				// before it draws into the shards.
				late := func() *Federated {
					var clients []*Dataset
					_, test := drawVision(cfg, func(labels []int) (x []float64, to []int) {
						time.Sleep(2 * time.Millisecond)
						clients, x, to = het.Assign(labels, cfg.Classes, n, tensor.NewRNG(int64(n))).slots(labels, cfg.Classes, cfg.Features)
						return x, to
					})
					return &Federated{Clients: clients, Test: test}
				}
				for _, procs := range []int{1, 2, 3} {
					runtime.GOMAXPROCS(procs)
					for _, b := range []struct {
						name string
						fed  *Federated
					}{{"BuildVision", BuildVision(cfg, n, het, int64(n))}, {"late layout", late()}} {
						where := fmt.Sprintf("%s: %d classes, %d clients, %v, GOMAXPROCS %d", b.name, cfg.Classes, n, het, procs)
						if !same(b.fed.Test.X.Data, test.X.Data) || !slices.Equal(b.fed.Test.Y, test.Y) {
							t.Fatalf("%s: the test set differs", where)
						}
						if len(b.fed.Clients) != n {
							t.Fatalf("%s: %d clients", where, len(b.fed.Clients))
						}
						for ci, got := range b.fed.Clients {
							w := want[ci]
							if !slices.Equal(got.X.Shape, w.X.Shape) || !same(got.X.Data, w.X.Data) ||
								!slices.Equal(got.Y, w.Y) || got.Classes != w.Classes || got.TokenVocab != w.TokenVocab {
								t.Fatalf("%s: client %d differs from Materialize's", where, ci)
							}
							if cap(got.X.Data) != len(got.X.Data) || cap(got.Y) != len(got.Y) {
								t.Fatalf("%s: client %d's slot reaches past its rows", where, ci)
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkBuildVision times the eager build cold at two benchmark
// corpora: sync_cnn_noniid's (10 classes × 500/50 rows of 192 features
// over 100 clients) and server_heavy_k64's (256/50 rows a class over 256
// clients), both Dir(0.5). Each build draws a new corpus seed, as the
// benchmark's passes do.
func BenchmarkBuildVision(b *testing.B) {
	for _, c := range []struct {
		name              string
		perClass, clients int
	}{{"sync_cnn_noniid", 500, 100}, {"server_heavy_k64", 256, 256}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := VisionConfig{Classes: 10, Features: 192, TrainPerClass: c.perClass, TestPerClass: 50,
				ModesPerClass: 4, Sep: 1, Noise: 0.6}
			for i := range b.N {
				cfg.Seed = int64(i)
				BuildVision(cfg, c.clients, Heterogeneity{Beta: 0.5}, int64(i)+1000)
			}
		})
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

// TestVisionHandoffPanics plants a panic on each side of drawVision's
// handoff and holds every build to three things: the panic is raised on
// the caller after the join with the value it was raised with, the build
// returns (a side left waiting on the other would hang it), and no
// goroutine outlives it. On the producer, ModesPerClass 0 with no test
// rows panics at the first train row's Intn; on the consumer, the
// assignment refuses numClients ≤ 0 before the layout exists, a planted
// panic in the layout runs while the producer draws into blocks of its
// own, and ModesPerClass 0 with no train rows panics in the test set.
func TestVisionHandoffPanics(t *testing.T) {
	panicOf := func(fn func()) (v any) {
		defer func() { v = recover() }()
		fn()
		return nil
	}
	intn0 := panicOf(func() { tensor.NewRNG(1).Intn(0) })
	cfg := smallVisionCfg(1)
	noModes, noTest, noTrain := cfg, cfg, cfg
	noModes.ModesPerClass = 0
	noTest.ModesPerClass, noTest.TestPerClass = 0, 0
	noTrain.ModesPerClass, noTrain.TrainPerClass = 0, 0
	labels := classMajorLabels(cfg.Classes, cfg.TrainPerClass)
	planted := "planted in the layout"
	base := runtime.NumGoroutine()
	for _, c := range []struct {
		name  string
		build func()
		want  any
	}{
		{"producer/BuildVision", func() { BuildVision(noTest, 4, Heterogeneity{Beta: 0.5}, 9) }, intn0},
		{"producer/GenerateVision", func() { GenerateVision(noTest) }, intn0},
		{"consumer/assignment", func() { BuildVision(cfg, 0, Heterogeneity{Beta: 0.5}, 9) },
			panicOf(func() { Heterogeneity{Beta: 0.5}.Assign(labels, cfg.Classes, 0, tensor.NewRNG(9)) })},
		{"consumer/layout", func() {
			drawVision(cfg, func([]int) ([]float64, []int) { panic(planted) })
		}, planted},
		{"consumer/test set", func() { BuildVision(noTrain, 4, Heterogeneity{IID: true}, 9) }, intn0},
		{"both", func() { GenerateVision(noModes) }, intn0},
	} {
		if c.want == nil {
			t.Fatalf("%s: the planted call does not panic", c.name)
		}
		got := make(chan any, 1)
		go func() { got <- panicOf(c.build) }()
		select {
		case v := <-got:
			if v != c.want {
				t.Fatalf("%s: panicked with %v, want %v", c.name, v, c.want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: the build did not return: one side waits on the other", c.name)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%s: %d goroutines after the build, %d before", c.name, n, base)
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
	cfg := Sent140Config{
		Vocab: 40, SeqLen: 8, Clients: 40, SamplesPerClient: 30,
		TestSamples: 400, SentimentTokens: 6, Seed: 4,
	}
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
		func() { AssignDirichlet(train.Y, train.Classes, 0, 0.5, rng) },
		func() { AssignDirichlet(train.Y, train.Classes, 4, 0, rng) },
		func() { AssignDirichlet(train.Y, train.Classes, 4, math.NaN(), rng) },
		func() { AssignDirichlet(train.Y, train.Classes, 4, math.Inf(1), rng) },
		func() { AssignIID(train.Len(), -1, rng) },
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
