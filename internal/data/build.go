package data

import (
	"sync"

	"fedcross/internal/tensor"
)

// BuildVision generates the synthetic vision corpus and partitions it
// across numClients clients with the given heterogeneity setting. It is
// the one-call constructor the experiments use for the CIFAR substitutes.
// The shards' slots are laid out (Assignment.slots) while the features
// are drawn, and the finish pass writes each train row straight into its
// client's slot: the shards are Materialize's over GenerateVision's
// train set, without the copy.
func BuildVision(cfg VisionConfig, numClients int, het Heterogeneity, partitionSeed int64) *Federated {
	var (
		clients []*Dataset
		x       []float64
		to      []int
	)
	train, test, phase := buildVision(cfg, numClients, het, partitionSeed, func(asg *Assignment, labels []int) {
		clients, x, to = asg.slots(labels, cfg.Classes, cfg.Features)
	})
	finish(x, train.X.Data, to, phase)
	finish(test.X.Data, test.X.Data, nil, phase)
	return &Federated{
		Name:    visionName(cfg) + "/" + het.String(),
		Clients: clients,
		Test:    test,
		Classes: cfg.Classes,
	}
}

// BuildVisionLazy is BuildVision with the client shards virtualized
// behind a Lazy source: partition boundaries are computed once from the
// same seed (so shards are byte-identical to BuildVision's), but shard
// tensors are synthesized only when leased, bounded by capacity resident
// shards (≤ 0 selects data.DefaultLazyCapacity) over a cache of stripes
// stripes (≤ 0 selects data.DefaultCacheStripes; see NewLazy). This is
// the constructor for million-client federations where the eager layout
// cannot fit.
func BuildVisionLazy(cfg VisionConfig, numClients int, het Heterogeneity, partitionSeed int64, capacity, stripes int) *Federated {
	var asg *Assignment
	train, test, phase := buildVision(cfg, numClients, het, partitionSeed, func(a *Assignment, _ []int) { asg = a })
	finish(train.X.Data, train.X.Data, nil, phase)
	finish(test.X.Data, test.X.Data, nil, phase)
	return &Federated{
		Name:    visionName(cfg) + "/" + het.String(),
		Source:  NewLazy(train, asg, capacity, stripes),
		Test:    test,
		Classes: cfg.Classes,
	}
}

// buildVision draws the corpus and, side by side, computes its partition
// and hands it to then with the train labels; the finish pass is left to
// its caller. The assignment reads only labels, which drawVision fixes
// class-major (classMajorLabels), and draws only from its own
// partitionSeed stream, so it and then run on a goroutine of their own
// while this one draws the features; the two meet before anything reads
// both. A bad config panics before the goroutine starts, as
// GenerateVision would; a panic in the assignment (numClients ≤ 0,
// beta ≤ 0) is raised again here, after the join, with the same value.
func buildVision(cfg VisionConfig, numClients int, het Heterogeneity, partitionSeed int64, then func(asg *Assignment, labels []int)) (train, test *Dataset, phase []float64) {
	checkVision(cfg)
	sideBySide(
		func() {
			labels := classMajorLabels(cfg.Classes, cfg.TrainPerClass)
			then(het.Assign(labels, cfg.Classes, numClients, tensor.NewRNG(partitionSeed)), labels)
		},
		func() { train, test, phase = drawVision(cfg) },
	)
	return train, test, phase
}

// sideBySide runs the last of fns on the calling goroutine and each other
// on a goroutine of its own, and returns once all have returned. A panic
// in any of them is recovered and, after the join, raised again on the
// caller with the same value (the first in fns order, if several panic).
// It is this package's one go statement outside the prefetch pool:
// setup-time work that never runs inside a round.
func sideBySide(fns ...func()) {
	panics := make([]any, len(fns))
	run := func(i int) {
		defer func() { panics[i] = recover() }()
		fns[i]()
	}
	var wg sync.WaitGroup
	wg.Add(len(fns) - 1)
	for i := range len(fns) - 1 {
		go func() {
			defer wg.Done()
			run(i)
		}()
	}
	run(len(fns) - 1)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

func visionName(cfg VisionConfig) string {
	name := "synth-vision10"
	if cfg.Classes != 10 {
		name = "synth-vision100"
		if cfg.Classes != 100 {
			name = "synth-vision"
		}
	}
	return name
}
