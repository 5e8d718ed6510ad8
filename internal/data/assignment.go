package data

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"fedcross/internal/tensor"
)

// Assignment is the compact, lazily-evaluable form of a partition: it
// records *which base-dataset rows belong to which client* without
// materializing any per-client tensors. For the Dirichlet scheme the
// metadata is O(samples + classes·clients-with-data): per-class shuffled
// row pools plus the contiguous [start,end) boundary each client owns
// inside every pool. For the IID scheme it is a single permutation with a
// round-robin stride layout. Clients rewritten by the top-up pass (one
// sample stolen from the largest shard into each empty shard) carry an
// explicit row-list overlay.
//
// Materialize (behind DirichletPartition and IIDPartition) and a Lazy
// source backed by the same Assignment produce byte-identical shards
// (TestLazyMatchesMaterialized; relations row source).
type Assignment struct {
	numClients int

	// Dirichlet layout: pools[c] is class c's shuffled row pool and
	// spans[c] lists, in ascending client order, each client's contiguous
	// slice of that pool (only clients with end > start appear).
	pools [][]int32
	spans [][]clientSpan

	// IID layout: perm is the shuffled row order; client ci owns
	// perm[ci], perm[ci+numClients], perm[ci+2·numClients], …
	perm []int32

	// overlay holds explicit row lists for clients rewritten by topUp.
	// It wins over the virtual layout for the clients it names.
	overlay map[int32][]int32

	// sizes caches the per-client sample count so weight lookups and
	// trainability checks never touch row data.
	sizes []int32
}

// clientSpan marks the contiguous pool slice [start, end) owned by one
// client within a single class pool.
type clientSpan struct {
	client     int32
	start, end int32
}

// AssignDirichlet computes the Dir(beta) label-skew assignment (Hsu et
// al.) of the rows labelled labels, each in [0, classes), as compact
// boundary metadata. It reads nothing but the labels, so it can run
// before the rows' features exist. It draws from rng in exactly the
// order DirichletPartition does: every class pool is shuffled first, then
// each non-empty class takes one Dirichlet draw, then the top-up pass
// consumes one Intn per donated sample.
func AssignDirichlet(labels []int, classes, numClients int, beta float64, rng *tensor.RNG) *Assignment {
	if numClients <= 0 {
		panic(fmt.Sprintf("data: DirichletPartition: numClients %d", numClients))
	}
	if !(beta > 0) || math.IsInf(beta, 1) {
		panic(fmt.Sprintf("data: DirichletPartition: beta %v must be positive and finite", beta))
	}
	a := &Assignment{
		numClients: numClients,
		pools:      make([][]int32, classes),
		spans:      make([][]clientSpan, classes),
		overlay:    map[int32][]int32{},
		sizes:      make([]int32, numClients),
	}
	for i, y := range labels {
		a.pools[y] = append(a.pools[y], int32(i))
	}
	for _, pool := range a.pools {
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	}
	// One client-sized vector serves every class: at 10^6 clients a fresh
	// one per class is 8 MB a time.
	p := make([]float64, numClients)
	for c, pool := range a.pools {
		if len(pool) == 0 {
			continue
		}
		rng.DirichletInto(p, beta)
		cum := 0.0
		start := 0
		for ci := 0; ci < numClients; ci++ {
			cum += p[ci]
			end := int(cum*float64(len(pool)) + 0.5)
			if ci == numClients-1 {
				end = len(pool)
			}
			if end > len(pool) {
				end = len(pool)
			}
			if end > start {
				a.spans[c] = append(a.spans[c], clientSpan{int32(ci), int32(start), int32(end)})
				a.sizes[ci] += int32(end - start)
			}
			start = end
		}
	}
	a.topUp(rng)
	return a
}

// AssignIID computes the round-robin deal of a shuffled permutation of
// samples rows, matching IIDPartition's RNG order (one Perm, then top-up
// Intn draws).
func AssignIID(samples, numClients int, rng *tensor.RNG) *Assignment {
	if numClients <= 0 {
		panic(fmt.Sprintf("data: IIDPartition: numClients %d", numClients))
	}
	a := &Assignment{
		numClients: numClients,
		overlay:    map[int32][]int32{},
		sizes:      make([]int32, numClients),
	}
	perm := rng.Perm(samples)
	a.perm = make([]int32, len(perm))
	for i, idx := range perm {
		a.perm[i] = int32(idx)
		a.sizes[i%numClients]++
	}
	a.topUp(rng)
	return a
}

// Assign applies the heterogeneity setting to the rows labelled labels
// (each in [0, classes)) as compact metadata; Materialize turns it into
// the eager partition.
func (h Heterogeneity) Assign(labels []int, classes, numClients int, rng *tensor.RNG) *Assignment {
	if h.IID {
		return AssignIID(len(labels), numClients, rng)
	}
	return AssignDirichlet(labels, classes, numClients, h.Beta, rng)
}

// NumClients returns the number of clients in the assignment.
func (a *Assignment) NumClients() int { return a.numClients }

// Size returns client ci's sample count without materializing rows.
func (a *Assignment) Size(ci int) int { return int(a.sizes[ci]) }

// Rows materializes client ci's base-dataset row indices in the exact
// order Materialize lays them out.
func (a *Assignment) Rows(ci int) []int {
	if ci < 0 || ci >= a.numClients {
		panic(fmt.Sprintf("data: Assignment.Rows client %d out of range [0,%d)", ci, a.numClients))
	}
	if ov, ok := a.overlay[int32(ci)]; ok {
		out := make([]int, len(ov))
		for i, r := range ov {
			out[i] = int(r)
		}
		return out
	}
	out := make([]int, 0, a.sizes[ci])
	if a.perm != nil {
		for i := ci; i < len(a.perm); i += a.numClients {
			out = append(out, int(a.perm[i]))
		}
		return out
	}
	for c := range a.spans {
		spans := a.spans[c]
		k := sort.Search(len(spans), func(i int) bool { return spans[i].client >= int32(ci) })
		if k < len(spans) && spans[k].client == int32(ci) {
			for _, r := range a.pools[c][spans[k].start:spans[k].end] {
				out = append(out, int(r))
			}
		}
	}
	return out
}

// Materialize builds the eager per-client shard slice from the metadata.
// DirichletPartition and IIDPartition are thin wrappers over this.
func (a *Assignment) Materialize(src *Dataset) []*Dataset {
	out := make([]*Dataset, a.numClients)
	for ci := range out {
		out[ci] = src.Subset(a.Rows(ci))
	}
	return out
}

// rowsMut returns a mutable explicit row list for ci, installing an
// overlay materialization on first use.
func (a *Assignment) rowsMut(ci int32) []int32 {
	if ov, ok := a.overlay[ci]; ok {
		return ov
	}
	rows := make([]int32, 0, a.sizes[ci])
	for _, r := range a.Rows(int(ci)) {
		rows = append(rows, int32(r))
	}
	a.overlay[ci] = rows
	return rows
}

// donorHeap is a lazy-deletion max-heap over (size desc, client asc):
// its top is the first client index attaining the maximum shard size,
// exactly the donor topUpEmpty's linear scan picks.
type donorHeap []donorEntry

type donorEntry struct {
	size   int32
	client int32
}

func (h donorHeap) Len() int { return len(h) }
func (h donorHeap) Less(i, j int) bool {
	if h[i].size != h[j].size {
		return h[i].size > h[j].size
	}
	return h[i].client < h[j].client
}
func (h donorHeap) Swap(i, j int)    { h[i], h[j] = h[j], h[i] }
func (h *donorHeap) Push(x any)      { *h = append(*h, x.(donorEntry)) }
func (h *donorHeap) Pop() any        { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h donorHeap) peek() donorEntry { return h[0] }

// topUp fills empty shards on the metadata: for each empty client in id
// order, steal one sample (at a rng.Intn position, order-preserving
// removal) from the first client holding the strictly largest shard,
// skipping when no shard holds more than one sample. The donor scan uses
// a lazy-deletion heap so a 10^6-client pass is O(N + donations·log N),
// picking the donors, and drawing, as a linear scan per empty client
// would.
func (a *Assignment) topUp(rng *tensor.RNG) {
	h := donorHeap{}
	for ci, sz := range a.sizes {
		if sz >= 2 {
			h = append(h, donorEntry{sz, int32(ci)})
		}
	}
	heap.Init(&h)
	for ci := 0; ci < a.numClients; ci++ {
		if a.sizes[ci] != 0 {
			continue
		}
		donor := int32(-1)
		for h.Len() > 0 {
			top := h.peek()
			if top.size != a.sizes[top.client] { // stale: size changed since push
				heap.Pop(&h)
				continue
			}
			donor = top.client
			break
		}
		if donor < 0 {
			// No shard holds ≥2 samples, so every remaining empty client
			// would also find len(largest) ≤ 1 and skip: no further RNG
			// draws or mutations.
			break
		}
		rows := a.rowsMut(donor)
		k := rng.Intn(len(rows))
		a.overlay[int32(ci)] = []int32{rows[k]}
		a.overlay[donor] = append(rows[:k], rows[k+1:]...)
		a.sizes[donor]--
		a.sizes[ci] = 1
		if a.sizes[donor] >= 2 {
			heap.Push(&h, donorEntry{a.sizes[donor], donor})
		}
	}
}
