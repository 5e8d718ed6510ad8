package data

import (
	"testing"

	"fedcross/internal/tensor"
)

// TestLazyDropCaches pins the cache-shed contract a checkpoint-resume
// cycle relies on: DropCaches evicts exactly the unleased residents,
// leaves every live lease untouched, and the evicted shards re-synthesize
// bit-identically on the next Shard call.
func TestLazyDropCaches(t *testing.T) {
	train, _ := GenerateVision(smallVisionCfg(9))
	const n = 24
	l := NewLazy(train, AssignIID(train.Len(), n, tensor.NewRNG(8)), 32, 4)

	// Populate residency: lease-and-release the first 12 shards, keep
	// live leases on two of them.
	for id := 0; id < 12; id++ {
		l.Shard(id)
		if id != 3 && id != 7 {
			l.Release(id)
		}
	}
	leased3, leased7 := l.Shard(3), l.Shard(7) // second lease on each
	l.Release(3)
	l.Release(7)
	before := l.Resident()
	if before != 12 {
		t.Fatalf("want 12 resident shards, got %d", before)
	}
	if l.Outstanding() != 2 {
		t.Fatalf("want 2 outstanding leases, got %d", l.Outstanding())
	}

	dropped := l.DropCaches()
	if dropped != 10 {
		t.Fatalf("want 10 dropped (12 resident - 2 leased), got %d", dropped)
	}
	if got := l.Resident(); got != 2 {
		t.Fatalf("want 2 resident after drop, got %d", got)
	}
	if l.Outstanding() != 2 {
		t.Fatalf("DropCaches must not touch leases, outstanding %d", l.Outstanding())
	}
	// The leased shards' data is still the same backing store.
	if !sameShard(l.Shard(3), leased3) || !sameShard(l.Shard(7), leased7) {
		t.Fatal("leased shards must survive DropCaches intact")
	}
	l.Release(3)
	l.Release(7)

	// Evicted shards come back bit-identical: pure (seed, id) synthesis.
	eager := AssignIID(train.Len(), n, tensor.NewRNG(8)).Materialize(train)
	for id := 0; id < 12; id++ {
		if !sameShard(l.Shard(id), eager[id]) {
			t.Fatalf("shard %d differs after re-synthesis", id)
		}
		l.Release(id)
	}

	// A second drop on an all-unleased cache clears everything.
	l.Release(3)
	l.Release(7)
	if got := l.DropCaches(); got != 12 {
		t.Fatalf("second DropCaches must evict all 12 repopulated residents, got %d", got)
	}
	if l.Resident() != 0 {
		t.Fatalf("want 0 resident after final drop, got %d", l.Resident())
	}
	if l.Outstanding() != 0 {
		t.Fatalf("want 0 outstanding at end, got %d", l.Outstanding())
	}
}
