package data

import (
	"fmt"
	"testing"

	"fedcross/internal/tensor"
)

func sameShard(a, b *Dataset) bool {
	if a.Len() != b.Len() || a.Classes != b.Classes {
		return false
	}
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			return false
		}
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			return false
		}
	}
	return true
}

// TestLazyMatchesMaterialized is the core equivalence property of the
// virtual-client refactor: for every partition scheme, seed and client
// count — including counts far beyond the sample count, which exercise
// empty shards and the top-up donor pass — a Lazy source synthesizes
// byte-identical shards to the eager Materialize layout, and its Size
// metadata agrees without ever touching row data. Leases run through a
// deliberately tiny cache so most hits are re-syntheses after eviction.
func TestLazyMatchesMaterialized(t *testing.T) {
	hets := []Heterogeneity{{IID: true}, {Beta: 0.1}, {Beta: 0.5}, {Beta: 5}}
	for _, het := range hets {
		for _, seed := range []int64{1, 2} {
			for _, n := range []int{5, 13, 200} { // 200 > the 120-sample corpus
				t.Run(fmt.Sprintf("%s/seed%d/n%d", het.String(), seed, n), func(t *testing.T) {
					train, _ := GenerateVision(smallVisionCfg(seed))
					eager := het.Assign(train.Y, train.Classes, n, tensor.NewRNG(seed+100)).Materialize(train)
					lazy := NewLazy(train, het.Assign(train.Y, train.Classes, n, tensor.NewRNG(seed+100)), 7, 0)
					if lazy.NumClients() != n || len(eager) != n {
						t.Fatalf("client counts %d / %d, want %d", lazy.NumClients(), len(eager), n)
					}
					// Two passes in opposite orders: the second re-leases
					// shards the 7-slot LRU has long evicted.
					for pass := 0; pass < 2; pass++ {
						for i := 0; i < n; i++ {
							ci := i
							if pass == 1 {
								ci = n - 1 - i
							}
							if lazy.Size(ci) != eager[ci].Len() {
								t.Fatalf("client %d Size %d, eager %d", ci, lazy.Size(ci), eager[ci].Len())
							}
							shard := lazy.Shard(ci)
							if !sameShard(shard, eager[ci]) {
								t.Fatalf("client %d shard differs from eager materialization", ci)
							}
							lazy.Release(ci)
						}
					}
					if lazy.Outstanding() != 0 {
						t.Fatalf("outstanding leases %d after release", lazy.Outstanding())
					}
				})
			}
		}
	}
}

// TestBuildVisionLazyMatchesBuildVision checks the one-call constructors
// agree end to end: same name, totals, per-class distribution and bytes.
func TestBuildVisionLazyMatchesBuildVision(t *testing.T) {
	cfg := smallVisionCfg(3)
	eager := BuildVision(cfg, 9, Heterogeneity{Beta: 0.5}, 11)
	lazy := BuildVisionLazy(cfg, 9, Heterogeneity{Beta: 0.5}, 11, 4, 0)
	if eager.Name != lazy.Name || eager.NumClients() != lazy.NumClients() {
		t.Fatalf("identity mismatch: %q/%d vs %q/%d", eager.Name, eager.NumClients(), lazy.Name, lazy.NumClients())
	}
	if eager.TotalTrainSamples() != lazy.TotalTrainSamples() {
		t.Fatalf("totals %d vs %d", eager.TotalTrainSamples(), lazy.TotalTrainSamples())
	}
	me, ml := eager.DistributionMatrix(), lazy.DistributionMatrix()
	for c := range me {
		for ci := range me[c] {
			if me[c][ci] != ml[c][ci] {
				t.Fatalf("distribution[%d][%d] %d vs %d", c, ci, me[c][ci], ml[c][ci])
			}
		}
	}
	for ci := 0; ci < eager.NumClients(); ci++ {
		if !sameShard(eager.LeaseShard(ci), lazy.LeaseShard(ci)) {
			t.Fatalf("client %d shards differ", ci)
		}
		eager.ReleaseShard(ci)
		lazy.ReleaseShard(ci)
	}
	if lazy.OutstandingLeases() != 0 {
		t.Fatalf("outstanding %d", lazy.OutstandingLeases())
	}
}

// TestLazyLRUPinningAndBounds: leased shards are pinned past capacity,
// and once leases drain the resident set stops growing — the memory
// bound the million-client runs rely on.
func TestLazyLRUPinningAndBounds(t *testing.T) {
	train, _ := GenerateVision(smallVisionCfg(1))
	asg := AssignIID(train.Len(), 10, tensor.NewRNG(2))
	l := NewLazy(train, asg, 3, 0)

	for ci := 0; ci < 3; ci++ {
		l.Shard(ci)
	}
	if l.Resident() != 3 || l.Outstanding() != 3 {
		t.Fatalf("resident %d outstanding %d", l.Resident(), l.Outstanding())
	}
	// Everything is leased: a fourth shard must pin past capacity rather
	// than evict a live lease.
	l.Shard(3)
	if l.Resident() != 4 {
		t.Fatalf("resident %d, want pinning to 4", l.Resident())
	}
	for ci := 0; ci < 4; ci++ {
		l.Release(ci)
	}
	if l.Outstanding() != 0 {
		t.Fatalf("outstanding %d", l.Outstanding())
	}
	// With leases drained, further distinct leases evict instead of grow.
	peak := l.Resident()
	for ci := 4; ci < 10; ci++ {
		l.Shard(ci)
		l.Release(ci)
		if l.Resident() > peak {
			t.Fatalf("resident grew to %d past drained peak %d", l.Resident(), peak)
		}
	}
	// An evicted shard re-synthesizes identically.
	want := train.Subset(asg.Rows(0))
	if got := l.Shard(0); !sameShard(got, want) {
		t.Fatal("re-synthesized shard differs after eviction")
	}
	l.Release(0)
}

func TestSourceReleaseWithoutLeasePanics(t *testing.T) {
	train, _ := GenerateVision(smallVisionCfg(1))
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic on unmatched release", name)
			}
		}()
		fn()
	}
	lazy := NewLazy(train, AssignIID(train.Len(), 4, tensor.NewRNG(1)), 2, 0)
	mustPanic("lazy", func() { lazy.Release(0) })
	mat := NewMaterialized(AssignIID(train.Len(), 4, tensor.NewRNG(1)).Materialize(train))
	mustPanic("materialized", func() { mat.Release(0) })
}

// TestAssignmentHugePopulation: metadata for a client population far
// beyond the sample count stays compact and consistent — most clients
// are empty, sizes sum to the corpus, and Rows agrees with Size.
func TestAssignmentHugePopulation(t *testing.T) {
	train, _ := GenerateVision(smallVisionCfg(4))
	for _, het := range []Heterogeneity{{IID: true}, {Beta: 0.3}} {
		asg := het.Assign(train.Y, train.Classes, 50000, tensor.NewRNG(9))
		total, nonEmpty := 0, 0
		for ci := 0; ci < asg.NumClients(); ci++ {
			sz := asg.Size(ci)
			total += sz
			if sz > 0 {
				nonEmpty++
				if got := len(asg.Rows(ci)); got != sz {
					t.Fatalf("%s client %d: Rows %d vs Size %d", het.String(), ci, got, sz)
				}
			}
		}
		if total != train.Len() {
			t.Fatalf("%s sizes sum %d, want %d", het.String(), total, train.Len())
		}
		if nonEmpty == 0 || nonEmpty > train.Len() {
			t.Fatalf("%s non-empty clients %d out of range", het.String(), nonEmpty)
		}
	}
}
