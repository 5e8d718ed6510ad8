package data

import (
	"sync"

	"fedcross/internal/tensor"
)

// BuildVision generates the synthetic vision corpus and partitions it
// across numClients clients with the given heterogeneity setting. It is
// the one-call constructor the experiments use for the CIFAR substitutes.
// The assignment and the shards' slots (Assignment.slots) are laid out
// on the corpus's consumer side while the producer draws, and each train
// row is finished straight into its client's slot (drawVision): the
// shards are Materialize's over GenerateVision's train set, without the
// train set. A panic in the assignment (numClients ≤ 0, beta ≤ 0) is
// raised again here, after the join, with the same value.
func BuildVision(cfg VisionConfig, numClients int, het Heterogeneity, partitionSeed int64) *Federated {
	var clients []*Dataset
	_, test := drawVision(cfg, func(labels []int) (x []float64, to []int) {
		clients, x, to = het.Assign(labels, cfg.Classes, numClients, tensor.NewRNG(partitionSeed)).slots(labels, cfg.Classes, cfg.Features)
		return x, to
	})
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
//
// The assignment reads only labels, which GenerateVision fixes
// class-major (classMajorLabels), and draws only from its own
// partitionSeed stream, so it runs on a goroutine of its own beside the
// whole corpus: at 10^6 clients it is the longer of the two. A bad config
// panics before the goroutine starts; a panic in the assignment is raised
// again here, after the join, with the same value.
func BuildVisionLazy(cfg VisionConfig, numClients int, het Heterogeneity, partitionSeed int64, capacity, stripes int) *Federated {
	checkVision(cfg)
	var (
		asg         *Assignment
		train, test *Dataset
	)
	sideBySide(
		func() {
			asg = het.Assign(classMajorLabels(cfg.Classes, cfg.TrainPerClass), cfg.Classes, numClients, tensor.NewRNG(partitionSeed))
		},
		func() { train, test = GenerateVision(cfg) },
	)
	return &Federated{
		Name:    visionName(cfg) + "/" + het.String(),
		Source:  NewLazy(train, asg, capacity, stripes),
		Test:    test,
		Classes: cfg.Classes,
	}
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
