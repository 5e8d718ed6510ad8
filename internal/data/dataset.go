// Package data provides the synthetic datasets and client partitioners for
// the FedCross reproduction. Real CIFAR/LEAF corpora are unavailable in
// this offline pure-Go environment, so each paper dataset is replaced by a
// generator that preserves the property the evaluation depends on:
// class-conditional structure (so Dirichlet partitioning creates genuine
// heterogeneity), natural per-user skew for the LEAF-style tasks, and
// enough difficulty that model and algorithm choices matter (README's
// "Fidelity notes" paragraph on the synthetic substitutes); each
// generator's comment says what it builds in place of its corpus.
package data

import (
	"fmt"

	"fedcross/internal/tensor"
)

// Dataset is a labelled sample collection with flat feature vectors.
type Dataset struct {
	// X holds one sample per row (N × D).
	X *tensor.Tensor
	// Y holds the integer class label of each row.
	Y []int
	// Classes is the number of distinct labels.
	Classes int
	// TokenVocab, when positive, marks the features as integer token ids
	// in [0, TokenVocab) stored as float64 (the text datasets). Synthetic
	// data injected into such a dataset — FedGen's generator
	// augmentation — must be discretised to valid ids first; 0 means
	// continuous features.
	TokenVocab int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Features returns the flat feature width.
func (d *Dataset) Features() int {
	if d.X.Rank() != 2 {
		panic(fmt.Sprintf("data: Dataset.X must be rank-2, got %v", d.X.Shape))
	}
	return d.X.Shape[1]
}

// Subset returns a new dataset containing the given row indices. The
// feature rows are copied, so the subset is independent of the parent.
func (d *Dataset) Subset(idx []int) *Dataset {
	w := d.Features()
	x := tensor.Zeros(len(idx), w)
	y := make([]int, len(idx))
	for i, j := range idx {
		if j < 0 || j >= d.Len() {
			panic(fmt.Sprintf("data: Subset index %d out of range [0,%d)", j, d.Len()))
		}
		copy(x.Data[i*w:(i+1)*w], d.X.Data[j*w:(j+1)*w])
		y[i] = d.Y[j]
	}
	return &Dataset{X: x, Y: y, Classes: d.Classes, TokenVocab: d.TokenVocab}
}

// BatchInto copies the rows idx into caller-owned buffers: x must be
// (len(idx) × D) and y must have len(idx) entries.
func (d *Dataset) BatchInto(x *tensor.Tensor, y []int, idx []int) {
	w := d.Features()
	if x.Rank() != 2 || x.Shape[0] != len(idx) || x.Shape[1] != w || len(y) != len(idx) {
		panic(fmt.Sprintf("data: BatchInto buffers (%v, %d labels) do not fit %d×%d batch", x.Shape, len(y), len(idx), w))
	}
	for i, j := range idx {
		copy(x.Data[i*w:(i+1)*w], d.X.Data[j*w:(j+1)*w])
		y[i] = d.Y[j]
	}
}

// Batches splits a fresh random permutation of the dataset into mini
// batches of size batchSize (the final batch may be smaller) and calls fn
// for each. It is the training-epoch iterator. The x tensor and y slice
// passed to fn are reused between invocations and are only valid for the
// duration of the callback; copy them if they must outlive it.
func (d *Dataset) Batches(rng *tensor.RNG, batchSize int, fn func(x *tensor.Tensor, y []int)) {
	if batchSize <= 0 {
		panic(fmt.Sprintf("data: batch size %d must be positive", batchSize))
	}
	perm := rng.Perm(d.Len())
	w := d.Features()
	x := tensor.GetScratch(batchSize, w)
	defer tensor.PutScratch(x)
	y := make([]int, batchSize)
	for start := 0; start < len(perm); start += batchSize {
		end := start + batchSize
		if end > len(perm) {
			end = len(perm)
		}
		n := end - start
		bx := tensor.Ensure(x, n, w)
		by := y[:n]
		d.BatchInto(bx, by, perm[start:end])
		fn(bx, by)
	}
}

// ClassCounts returns the number of samples per class.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.Classes)
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}

// Federated couples per-client training shards with a shared test set.
// Client data lives either in the eager Clients slice (always resident)
// or behind a virtualizing Source; when Source is non-nil it
// wins and Clients stays nil. All consumers go through the accessor
// methods below, which collapse both layouts onto the lease discipline.
type Federated struct {
	// Name identifies the dataset in reports.
	Name string
	// Clients holds one training shard per client (eager layout). Nil
	// when Source is set.
	Clients []*Dataset
	// Source, when non-nil, produces client shards on demand.
	Source ClientSource
	// Test is the held-out evaluation set shared by all methods.
	Test *Dataset
	// Classes is the label-space size.
	Classes int
}

// NumClients returns the number of client shards.
func (f *Federated) NumClients() int {
	if f.Source != nil {
		return f.Source.NumClients()
	}
	return len(f.Clients)
}

// Size returns client ci's sample count without materializing its shard.
func (f *Federated) Size(ci int) int {
	if f.Source != nil {
		return f.Source.Size(ci)
	}
	return f.Clients[ci].Len()
}

// LeaseShard returns client ci's shard, synthesizing it when the data is
// virtualized. Every call must be paired with ReleaseShard(ci) once the
// shard is no longer used; for the eager layout the lease is a plain
// index and release is a no-op.
func (f *Federated) LeaseShard(ci int) *Dataset {
	if f.Source != nil {
		return f.Source.Shard(ci)
	}
	return f.Clients[ci]
}

// ReleaseShard returns a lease taken by LeaseShard.
func (f *Federated) ReleaseShard(ci int) {
	if f.Source != nil {
		f.Source.Release(ci)
	}
}

// OutstandingLeases reports the source's live lease count (always zero
// for the eager layout).
func (f *Federated) OutstandingLeases() int {
	if f.Source != nil {
		return f.Source.Outstanding()
	}
	return 0
}

// SourceStats returns the source's cache telemetry when the federation
// is virtualized behind a source that exposes it (the lazy LRU); eager
// federations and plain sources report ok = false.
func (f *Federated) SourceStats() (CacheStats, bool) {
	if s, ok := f.Source.(CacheStatser); ok {
		return s.CacheStats(), true
	}
	return CacheStats{}, false
}

// Trainable reports whether client ci holds at least one sample. Eager
// federations report every client trainable so an empty shard surfaces
// the "empty shard" training error; virtualized federations (where at
// million-client scale empty shards are expected, not exceptional) are
// filtered out of selection instead. Eager ≡ Materialized ≡ Lazy
// (relations row source) therefore holds only without empty shards.
func (f *Federated) Trainable(ci int) bool {
	return f.Source == nil || f.Source.Size(ci) > 0
}

// TotalTrainSamples returns the number of training samples across all
// clients. It reads metadata sizes only — computing aggregation weights
// never forces shard materialization.
func (f *Federated) TotalTrainSamples() int {
	n := 0
	for ci := 0; ci < f.NumClients(); ci++ {
		n += f.Size(ci)
	}
	return n
}

// DistributionMatrix returns counts[class][client], the Fig-3 heat-map
// data. Shards are leased one at a time, so a virtualized federation
// only ever holds its LRU working set resident.
func (f *Federated) DistributionMatrix() [][]int {
	n := f.NumClients()
	m := make([][]int, f.Classes)
	for c := range m {
		m[c] = make([]int, n)
	}
	for ci := 0; ci < n; ci++ {
		shard := f.LeaseShard(ci)
		for _, y := range shard.Y {
			m[y][ci]++
		}
		f.ReleaseShard(ci)
	}
	return m
}
