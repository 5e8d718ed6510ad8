package data

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"fedcross/internal/tensor"
)

// TestLazyStripedMatchesMaterialized pins the geometry-invariance half of
// the striped-cache contract: every stripe count — including the
// degenerate single-mutex layout — synthesizes byte-identical shards.
func TestLazyStripedMatchesMaterialized(t *testing.T) {
	train, _ := GenerateVision(smallVisionCfg(7))
	het := Heterogeneity{Beta: 0.5}
	const n = 40
	eager := het.Assign(train.Y, train.Classes, n, tensor.NewRNG(77)).Materialize(train)
	for _, stripes := range []int{1, 8, 64} {
		t.Run(fmt.Sprintf("stripes%d", stripes), func(t *testing.T) {
			l := NewLazyStriped(train, het.Assign(train.Y, train.Classes, n, tensor.NewRNG(77)), 16, stripes)
			for ci := 0; ci < n; ci++ {
				if !sameShard(l.Shard(ci), eager[ci]) {
					t.Fatalf("client %d shard differs at %d stripes", ci, stripes)
				}
				l.Release(ci)
			}
			if got := l.CacheStats().Stripes; stripes <= 16 && got != stripes {
				t.Fatalf("geometry %d stripes, want %d", got, stripes)
			}
		})
	}
}

// TestLazyConcurrentLeaseStress hammers Shard/Release from P goroutines
// whose ids deliberately cross stripe boundaries, under a cache small
// enough that evict/re-synthesize races are constant. Run under -race
// (CI has a dedicated lane) this is the data-race witness for the
// striped lease path; functionally it pins lazy≡materialized equality
// under contention and a fully drained lease count afterwards.
func TestLazyConcurrentLeaseStress(t *testing.T) {
	train, _ := GenerateVision(smallVisionCfg(5))
	het := Heterogeneity{Beta: 0.3}
	const n = 64
	eager := het.Assign(train.Y, train.Classes, n, tensor.NewRNG(55)).Materialize(train)
	l := NewLazyStriped(train, het.Assign(train.Y, train.Classes, n, tensor.NewRNG(55)), 12, 8)

	workers := runtime.NumCPU() * 2
	if workers < 4 {
		workers = 4
	}
	const iters = 200
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Stride by a value coprime to the stripe count so each
				// worker sweeps every stripe, and offset by the worker id
				// so same-id collisions across workers are routine.
				ci := (w + i*13) % n
				shard := l.Shard(ci)
				if !sameShard(shard, eager[ci]) {
					errc <- fmt.Errorf("worker %d: client %d shard differs under contention", w, ci)
					l.Release(ci)
					return
				}
				l.Release(ci)
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if l.Outstanding() != 0 {
		t.Fatalf("outstanding %d after drain, want 0", l.Outstanding())
	}
	stats := l.CacheStats()
	if stats.Hits+stats.Misses != int64(workers*iters) {
		t.Fatalf("hits %d + misses %d != %d leases", stats.Hits, stats.Misses, workers*iters)
	}
	if stats.Resident > 12 {
		t.Fatalf("resident %d exceeds capacity 12 with no leases held", stats.Resident)
	}
}

// TestLazyPrefetch covers the background pool: WaitPrefetch drains fully,
// warmed entries are pin-soft (resident but unleased, evictable), later
// leases count as PrefetchHits, and invalid ids are skipped harmlessly.
func TestLazyPrefetch(t *testing.T) {
	train, _ := GenerateVision(smallVisionCfg(2))
	asg := AssignIID(train.Len(), 20, tensor.NewRNG(3))
	l := NewLazyStriped(train, AssignIID(train.Len(), 20, tensor.NewRNG(3)), 16, 4)

	l.Prefetch([]int{0, 1, 2, 3, -1, 99, 2}) // dupes and junk ids welcome
	l.WaitPrefetch()
	if got := l.Resident(); got != 4 {
		t.Fatalf("resident %d after prefetch, want 4", got)
	}
	if l.Outstanding() != 0 {
		t.Fatalf("prefetch took %d leases, want 0", l.Outstanding())
	}
	for ci := 0; ci < 4; ci++ {
		if !sameShard(l.Shard(ci), train.Subset(asg.Rows(ci))) {
			t.Fatalf("client %d prefetched shard differs", ci)
		}
		l.Release(ci)
	}
	stats := l.CacheStats()
	if stats.PrefetchHits != 4 {
		t.Fatalf("prefetch hits %d, want 4", stats.PrefetchHits)
	}
	if stats.Hits != 4 || stats.Misses != 0 {
		t.Fatalf("hits %d misses %d, want 4/0 (all leases warmed)", stats.Hits, stats.Misses)
	}
	// A second lease of a warmed-then-released entry is a plain hit.
	l.Shard(0)
	l.Release(0)
	if got := l.CacheStats().PrefetchHits; got != 4 {
		t.Fatalf("prefetch hits %d after re-lease, want still 4", got)
	}
}

// TestLazyPrefetchNeverOverflows: when every resident entry of a stripe
// is leased, a prefetch insert is dropped — resident count and overflow
// counter both stay put — while a lease of the same id still succeeds by
// growing the stripe (overflow counted).
func TestLazyPrefetchNeverOverflows(t *testing.T) {
	train, _ := GenerateVision(smallVisionCfg(1))
	l := NewLazyStriped(train, AssignIID(train.Len(), 10, tensor.NewRNG(2)), 3, 1)

	for ci := 0; ci < 3; ci++ {
		l.Shard(ci) // pin the whole stripe
	}
	l.Prefetch([]int{5})
	l.WaitPrefetch()
	if got := l.Resident(); got != 3 {
		t.Fatalf("resident %d after prefetch into pinned stripe, want 3 (dropped)", got)
	}
	if ov := l.CacheStats().Overflow; ov != 0 {
		t.Fatalf("overflow %d from prefetch, want 0", ov)
	}
	l.Shard(5) // a lease MUST succeed, growing the pinned stripe
	if got := l.Resident(); got != 4 {
		t.Fatalf("resident %d after lease into pinned stripe, want 4", got)
	}
	if ov := l.CacheStats().Overflow; ov != 1 {
		t.Fatalf("overflow %d after pinned-stripe lease, want 1", ov)
	}
	for _, ci := range []int{0, 1, 2, 5} {
		l.Release(ci)
	}
	if l.Outstanding() != 0 {
		t.Fatalf("outstanding %d", l.Outstanding())
	}
}

// TestLazyCancelPrefetch: cancel drops queued work and rendezvouses with
// in-flight synthesis, after which the pool is quiescent and reusable.
func TestLazyCancelPrefetch(t *testing.T) {
	train, _ := GenerateVision(smallVisionCfg(6))
	l := NewLazy(train, AssignIID(train.Len(), 30, tensor.NewRNG(4)), 64)
	ids := make([]int, 30)
	for i := range ids {
		ids[i] = i
	}
	l.Prefetch(ids)
	l.CancelPrefetch() // must not deadlock regardless of progress
	if l.Outstanding() != 0 {
		t.Fatalf("outstanding %d after cancel", l.Outstanding())
	}
	// The pool keeps working after a cancel.
	l.Prefetch([]int{7})
	l.WaitPrefetch()
	if _, hit := l.peek(7); !hit {
		t.Fatal("prefetch after cancel did not warm the cache")
	}
}

// peek reports whether id is resident, without leasing. Test helper only.
func (l *Lazy) peek(id int) (*Dataset, bool) {
	st := l.lockStripe(id)
	defer st.mu.Unlock()
	e, ok := st.cache[id]
	if !ok {
		return nil, false
	}
	return e.ds, true
}

// TestLazyRestripe: cold caches restripe (and re-clamp), warm caches
// refuse, and a same-count restripe is an idempotent success either way.
func TestLazyRestripe(t *testing.T) {
	train, _ := GenerateVision(smallVisionCfg(3))
	l := NewLazyStriped(train, AssignIID(train.Len(), 16, tensor.NewRNG(5)), 16, 4)
	if got := l.CacheStats().Stripes; got != 4 {
		t.Fatalf("stripes %d, want 4", got)
	}
	if !l.Restripe(8) {
		t.Fatal("cold restripe refused")
	}
	if got := l.CacheStats().Stripes; got != 8 {
		t.Fatalf("stripes %d after restripe, want 8", got)
	}
	// Over-capacity requests clamp exactly like the constructor.
	if !l.Restripe(999) {
		t.Fatal("cold restripe(999) refused")
	}
	if got := l.CacheStats().Stripes; got != 16 {
		t.Fatalf("stripes %d after clamped restripe, want capacity 16", got)
	}
	l.Shard(0) // warm the cache
	if l.Restripe(2) {
		t.Fatal("warm restripe succeeded, want refusal")
	}
	if l.Restripe(16) { // same count: no-op success even warm
		// fine
	} else {
		t.Fatal("same-count restripe refused")
	}
	l.Release(0)
	if !sameShard(l.Shard(0), train.Subset(AssignIID(train.Len(), 16, tensor.NewRNG(5)).Rows(0))) {
		t.Fatal("shard differs after restripes")
	}
	l.Release(0)
}

// TestLazyCacheStatsSnapshot sanity-checks the counter wiring end to end
// on a deterministic serial sequence.
func TestLazyCacheStatsSnapshot(t *testing.T) {
	train, _ := GenerateVision(smallVisionCfg(8))
	l := NewLazyStriped(train, AssignIID(train.Len(), 6, tensor.NewRNG(6)), 2, 1)

	l.Shard(0) // miss
	l.Release(0)
	l.Shard(0) // hit
	l.Release(0)
	l.Shard(1) // miss (cache now full: {0 unleased, 1 leased})
	l.Shard(2) // miss, evicts 0
	stats := l.CacheStats()
	if stats.Hits != 1 || stats.Misses != 3 {
		t.Fatalf("hits/misses %d/%d, want 1/3", stats.Hits, stats.Misses)
	}
	if stats.Evictions != 1 {
		t.Fatalf("evictions %d, want 1", stats.Evictions)
	}
	if stats.Resident != 2 || stats.Outstanding != 2 {
		t.Fatalf("resident/outstanding %d/%d, want 2/2", stats.Resident, stats.Outstanding)
	}
	if stats.Stripes != 1 || stats.Overflow != 0 || stats.PrefetchHits != 0 {
		t.Fatalf("stripes/overflow/prefetchHits %d/%d/%d, want 1/0/0",
			stats.Stripes, stats.Overflow, stats.PrefetchHits)
	}
	for _, ci := range []int{1, 2} {
		l.Release(ci)
	}
}

// TestLazyConcurrentPrefetchAndLease races the prefetch pool against
// foreground leases of the same ids — the engine's steady state, where
// round r+1's warm-up overlaps round r's training. Every lease must see
// correct bytes whether it won or lost the synthesis race.
func TestLazyConcurrentPrefetchAndLease(t *testing.T) {
	train, _ := GenerateVision(smallVisionCfg(9))
	het := Heterogeneity{Beta: 0.5}
	const n = 32
	eager := het.Assign(train.Y, train.Classes, n, tensor.NewRNG(99)).Materialize(train)
	l := NewLazyStriped(train, het.Assign(train.Y, train.Classes, n, tensor.NewRNG(99)), 24, 8)

	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				l.Prefetch(ids)
				for i := 0; i < n; i++ {
					ci := (w*7 + i) % n
					if !sameShard(l.Shard(ci), eager[ci]) {
						errc <- fmt.Errorf("worker %d round %d: client %d differs", w, round, ci)
						l.Release(ci)
						return
					}
					l.Release(ci)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	l.CancelPrefetch()
	if l.Outstanding() != 0 {
		t.Fatalf("outstanding %d after drain", l.Outstanding())
	}
}
