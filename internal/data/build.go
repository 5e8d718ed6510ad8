package data

import "fedcross/internal/tensor"

// BuildVision generates the synthetic vision corpus and partitions it
// across numClients clients with the given heterogeneity setting. It is
// the one-call constructor the experiments use for the CIFAR substitutes.
func BuildVision(cfg VisionConfig, numClients int, het Heterogeneity, partitionSeed int64) *Federated {
	train, test, asg := buildVision(cfg, numClients, het, partitionSeed)
	return &Federated{
		Name:    visionName(cfg) + "/" + het.String(),
		Clients: asg.Materialize(train),
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
	train, test, asg := buildVision(cfg, numClients, het, partitionSeed)
	return &Federated{
		Name:    visionName(cfg) + "/" + het.String(),
		Source:  NewLazy(train, asg, capacity, stripes),
		Test:    test,
		Classes: cfg.Classes,
	}
}

// buildVision generates the corpus and computes its partition side by
// side. The assignment reads only labels, which GenerateVision fixes
// class-major (classMajorLabels), and draws only from its own
// partitionSeed stream, so it runs on a goroutine of its own while this
// one draws the features; the two meet before anything reads both. A bad
// config panics before the goroutine starts, as GenerateVision would; a
// panic in the assignment (numClients ≤ 0, beta ≤ 0) is raised again
// here, after the join, with the same value.
func buildVision(cfg VisionConfig, numClients int, het Heterogeneity, partitionSeed int64) (train, test *Dataset, asg *Assignment) {
	checkVision(cfg)
	var failed any
	done := make(chan struct{})
	go func() {
		defer func() {
			failed = recover()
			close(done)
		}()
		asg = het.Assign(classMajorLabels(cfg.Classes, cfg.TrainPerClass), cfg.Classes, numClients, tensor.NewRNG(partitionSeed))
	}()
	train, test = GenerateVision(cfg)
	<-done
	if failed != nil {
		panic(failed)
	}
	return train, test, asg
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
