package data

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Lazy synthesizes shards on demand from an Assignment over a shared
// immutable base dataset, caching them in a bounded lease-aware LRU that
// is sharded by client id: clamp(NumCPU, 8, 64) stripes by default, each
// with its own mutex, LRU clock and capacity slice, so concurrent
// TrainAll workers leasing different clients never contend on one lock.
// Row synthesis (Dataset.Subset) always runs outside every stripe lock —
// the lock guards only map bookkeeping — so even same-stripe leases
// overlap their copies. A leased entry is pinned (never evicted); an
// unleased entry is evicted in least-recently-used order within its
// stripe once the stripe exceeds its capacity share. Cached shards never
// alias base storage and the base stays immutable — the same
// copy-on-lease structure the experiments EnvCache uses for environments.
//
// A Lazy additionally owns a bounded background prefetch pool (see
// Prefetch): the engines hand it the next round's planned cohort so
// shard synthesis overlaps the current round's training. Prefetched
// entries are pinned-soft — counted against capacity and evictable like
// any unleased entry — and prefetch never forces overflow: when every
// resident entry of a stripe is leased, a prefetch insert is dropped
// rather than growing the cache.
type Lazy struct {
	base     *Dataset
	asg      *Assignment
	capacity int

	// geo is the live stripe set. Restripe retires a set (under every
	// stripe lock) and swaps in a fresh one; lockStripe re-loads until it
	// locks a stripe of the live set, so entries can never be stranded in
	// a retired map.
	geo atomic.Pointer[stripeSet]

	outstanding atomic.Int64

	// Cache telemetry (CacheStats). overflow counts leases that grew a
	// fully-pinned stripe past its capacity share — the documented
	// degradation mode when every resident entry is leased at once.
	hits, misses, prefetchHits, evictions, overflow atomic.Int64

	pf prefetchPool
}

type stripeSet struct {
	stripes []*lazyStripe
	// retired is written under ALL stripe locks and read under any one
	// stripe lock, so a goroutine that locked a stale stripe always
	// observes it and retries against the live set.
	retired bool
}

type lazyStripe struct {
	mu       sync.Mutex
	cache    map[int]*lazyShard
	tick     uint64
	capacity int
}

type lazyShard struct {
	ds         *Dataset
	leases     int
	used       uint64
	prefetched bool // inserted by the prefetch pool, not yet leased
}

// DefaultLazyCapacity bounds the shard cache when the caller passes a
// non-positive capacity.
const DefaultLazyCapacity = 256

// DefaultCacheStripes returns the default stripe count,
// clamp(NumCPU, 8, 64): at least 8 so a few workers rarely collide even
// on small boxes, at most 64 so stripe bookkeeping stays negligible.
func DefaultCacheStripes() int {
	return clampStripes(runtime.NumCPU())
}

func clampStripes(n int) int {
	if n < 8 {
		return 8
	}
	if n > 64 {
		return 64
	}
	return n
}

// defaultPrefetchWorkers bounds the background synthesis pool: half the
// cores (training owns the rest), at least one, at most eight.
func defaultPrefetchWorkers() int {
	w := runtime.NumCPU() / 2
	if w < 1 {
		w = 1
	}
	if w > 8 {
		w = 8
	}
	return w
}

// NewLazy builds a lazy source over base with the given assignment and
// the default stripe count. capacity bounds the number of resident
// shards (≤ 0 selects DefaultLazyCapacity); leased shards can push the
// resident count past the bound, which shrinks back as leases are
// released.
func NewLazy(base *Dataset, asg *Assignment, capacity int) *Lazy {
	return NewLazyStriped(base, asg, capacity, 0)
}

// NewLazyStriped is NewLazy with an explicit stripe count (≤ 0 selects
// DefaultCacheStripes). The count is clamped to [1, capacity] so every
// stripe owns at least one cache slot. Stripe geometry affects only
// which lock a lease takes and where LRU order is tracked — synthesized
// shard bytes, and therefore every training history, are identical at
// every stripe count.
func NewLazyStriped(base *Dataset, asg *Assignment, capacity, stripes int) *Lazy {
	if capacity <= 0 {
		capacity = DefaultLazyCapacity
	}
	l := &Lazy{base: base, asg: asg, capacity: capacity}
	l.geo.Store(newStripeSet(capacity, resolveStripes(stripes, capacity)))
	l.pf.maxWorkers = defaultPrefetchWorkers()
	l.pf.idle = sync.NewCond(&l.pf.mu)
	return l
}

func resolveStripes(stripes, capacity int) int {
	if stripes <= 0 {
		stripes = DefaultCacheStripes()
	}
	if stripes > capacity {
		stripes = capacity
	}
	if stripes < 1 {
		stripes = 1
	}
	return stripes
}

// newStripeSet distributes capacity across stripes: every stripe gets
// capacity/stripes slots and the first capacity%stripes get one extra,
// so the per-stripe shares always sum to the global capacity.
func newStripeSet(capacity, stripes int) *stripeSet {
	set := &stripeSet{stripes: make([]*lazyStripe, stripes)}
	base, extra := capacity/stripes, capacity%stripes
	for i := range set.stripes {
		c := base
		if i < extra {
			c++
		}
		set.stripes[i] = &lazyStripe{cache: map[int]*lazyShard{}, capacity: c}
	}
	return set
}

// lockStripe locks and returns client id's stripe in the live set. If a
// Restripe retired the set between load and lock, the stale lock is
// dropped and the lookup retries — so every caller always mutates the
// live geometry.
func (l *Lazy) lockStripe(id int) *lazyStripe {
	for {
		set := l.geo.Load()
		st := set.stripes[id%len(set.stripes)]
		st.mu.Lock()
		if !set.retired {
			return st
		}
		st.mu.Unlock()
	}
}

// NumClients returns the assignment's client count.
func (l *Lazy) NumClients() int { return l.asg.NumClients() }

// Size returns client id's sample count from assignment metadata alone.
func (l *Lazy) Size(id int) int { return l.asg.Size(id) }

// Shard leases client id's shard. A hit pins the cached entry; a miss
// synthesizes the shard outside the stripe lock (so concurrent misses —
// the steady state of a huge-K round — copy rows fully in parallel) and
// inserts it, evicting unleased LRU entries from the stripe to stay
// within its capacity share.
func (l *Lazy) Shard(id int) *Dataset {
	st := l.lockStripe(id)
	if e, ok := st.cache[id]; ok {
		ds := l.leaseLocked(st, e)
		l.hits.Add(1)
		st.mu.Unlock()
		return ds
	}
	st.mu.Unlock()

	ds := l.base.Subset(l.asg.Rows(id))

	st = l.lockStripe(id)
	defer st.mu.Unlock()
	l.misses.Add(1)
	if e, ok := st.cache[id]; ok {
		// Lost a same-id synthesis race (another lessee or the prefetch
		// pool landed first): lease the resident copy, drop ours.
		return l.leaseLocked(st, e)
	}
	if !l.shrinkLocked(st) {
		// Every resident entry is leased: the lease must still succeed,
		// so the stripe grows past its share — counted, never silent.
		l.overflow.Add(1)
	}
	st.tick++
	st.cache[id] = &lazyShard{ds: ds, leases: 1, used: st.tick}
	l.outstanding.Add(1)
	return ds
}

// leaseLocked pins e and refreshes its LRU position. Caller holds st.mu.
func (l *Lazy) leaseLocked(st *lazyStripe, e *lazyShard) *Dataset {
	st.tick++
	e.leases++
	e.used = st.tick
	if e.prefetched {
		e.prefetched = false
		l.prefetchHits.Add(1)
	}
	l.outstanding.Add(1)
	return e.ds
}

// shrinkLocked evicts unleased LRU entries until the stripe has room for
// one more entry within its capacity share. It reports whether room
// exists (it may not, when every resident entry is leased — the caller
// decides whether to overflow or drop).
func (l *Lazy) shrinkLocked(st *lazyStripe) bool {
	for len(st.cache) >= st.capacity {
		victim, best := -1, uint64(0)
		for id, e := range st.cache {
			if e.leases > 0 {
				continue
			}
			if victim < 0 || e.used < best {
				victim, best = id, e.used
			}
		}
		if victim < 0 {
			return false
		}
		delete(st.cache, victim)
		l.evictions.Add(1)
	}
	return true
}

// DropCaches evicts every unleased resident shard and returns how many
// were dropped. Shards are pure functions of (seed, id), so the cache is
// always reconstructible; a checkpoint-resume cycle or a memory-pressure
// signal can call this to shed residency without touching any lease the
// training loop still holds. Prefetch should be quiesced first — entries
// landing concurrently survive or die by timing, which is fine for a
// best-effort shed but noisy for accounting.
func (l *Lazy) DropCaches() int {
	dropped := 0
	set := l.geo.Load()
	for i := range set.stripes {
		st := l.lockStripe(i)
		for id, e := range st.cache {
			if e.leases > 0 {
				continue
			}
			delete(st.cache, id)
			l.evictions.Add(1)
			dropped++
		}
		st.mu.Unlock()
	}
	return dropped
}

// Release returns a lease taken by Shard.
func (l *Lazy) Release(id int) {
	st := l.lockStripe(id)
	defer st.mu.Unlock()
	e, ok := st.cache[id]
	if !ok || e.leases <= 0 {
		panic(fmt.Sprintf("data: Lazy.Release(%d) without a matching Shard lease", id))
	}
	e.leases--
	l.outstanding.Add(-1)
}

// Outstanding returns the live lease count.
func (l *Lazy) Outstanding() int { return int(l.outstanding.Load()) }

// Resident returns the number of shards currently synthesized — the
// cache-pressure observable the scale tests assert on.
func (l *Lazy) Resident() int {
	set := l.geo.Load()
	n := 0
	for _, st := range set.stripes {
		st.mu.Lock()
		n += len(st.cache)
		st.mu.Unlock()
	}
	return n
}

// CacheStats is a point-in-time snapshot of a lazy source's cache
// telemetry. Counters are cumulative over the source's lifetime.
type CacheStats struct {
	// Resident is the number of synthesized shards currently cached;
	// Outstanding is the live lease count; Stripes is the cache geometry.
	Resident, Outstanding, Stripes int
	// Hits / Misses count Shard calls served from cache vs synthesized.
	// PrefetchHits counts hits whose entry was warmed by the prefetch
	// pool before its first lease — the prefetch-overlap win observable.
	Hits, Misses, PrefetchHits int64
	// Evictions counts entries dropped under capacity pressure.
	// Overflow counts leases that grew a fully-pinned stripe past its
	// capacity share — nonzero means the working set exceeded the cache
	// bound and the cache degraded gracefully instead of evicting a
	// pinned lease.
	Evictions, Overflow int64
}

// CacheStatser is implemented by sources that expose cache telemetry.
type CacheStatser interface {
	CacheStats() CacheStats
}

// CacheStats returns the source's current telemetry snapshot.
func (l *Lazy) CacheStats() CacheStats {
	return CacheStats{
		Resident:     l.Resident(),
		Outstanding:  l.Outstanding(),
		Stripes:      len(l.geo.Load().stripes),
		Hits:         l.hits.Load(),
		Misses:       l.misses.Load(),
		PrefetchHits: l.prefetchHits.Load(),
		Evictions:    l.evictions.Load(),
		Overflow:     l.overflow.Load(),
	}
}

// Restriper is implemented by sources whose cache geometry can be
// reconfigured before use. No engine calls it any more (the run-time
// stripe knob is gone); it stays only because benchmark/trace.go asserts
// *Lazy implements it, and goes with that assertion (ROADMAP items 2(b)
// and 3).
type Restriper interface {
	// Restripe rebuilds the cache with the given stripe count and
	// reports whether it took effect.
	Restripe(stripes int) bool
}

// Restripe rebuilds the cache with the given stripe count (≤ 0 selects
// the default, clamped to capacity as in NewLazyStriped). It succeeds
// only while the cache is cold — nothing resident, nothing leased; a
// warm cache keeps its geometry and Restripe reports false. Restriping
// never affects shard bytes, only lock placement.
func (l *Lazy) Restripe(stripes int) bool {
	stripes = resolveStripes(stripes, l.capacity)
	set := l.geo.Load()
	if len(set.stripes) == stripes {
		return true
	}
	for _, st := range set.stripes {
		st.mu.Lock()
	}
	resident := 0
	for _, st := range set.stripes {
		resident += len(st.cache)
	}
	ok := resident == 0 && l.outstanding.Load() == 0
	if ok {
		set.retired = true
		l.geo.Store(newStripeSet(l.capacity, stripes))
	}
	for _, st := range set.stripes {
		st.mu.Unlock()
	}
	return ok
}

// Prefetcher is implemented by sources that can warm shards ahead of
// their first lease. Prefetch must never draw from any simulation RNG —
// it only changes whether a later Shard call hits or synthesizes — so
// warming is always invisible to training histories.
type Prefetcher interface {
	// Prefetch enqueues ids for background synthesis and returns
	// immediately.
	Prefetch(ids []int)
	// CancelPrefetch drops work not yet started and waits for in-flight
	// synthesis to finish, so a caller that exits early never leaves
	// background goroutines touching the cache.
	CancelPrefetch()
}

// prefetchPool is the bounded background synthesis pool. Workers exist
// only while queued work does: Prefetch spawns up to maxWorkers, each
// exits when the queue drains, and idle signals the last exit so
// CancelPrefetch/WaitPrefetch can rendezvous without polling.
type prefetchPool struct {
	mu         sync.Mutex
	queue      []int
	workers    int
	maxWorkers int
	idle       *sync.Cond
}

// Prefetch enqueues the given client ids for background synthesis and
// returns immediately; ids are copied, so the caller may reuse or
// mutate the slice as soon as the call returns. Empty and out-of-range
// ids are skipped (a planned cohort may include -1 slots). Shards
// already resident are skipped at processing time; synthesized entries
// enter the cache pinned-soft (evictable, counted against capacity).
func (l *Lazy) Prefetch(ids []int) {
	l.pf.mu.Lock()
	for _, id := range ids {
		if id >= 0 && id < l.asg.NumClients() && l.asg.Size(id) > 0 {
			l.pf.queue = append(l.pf.queue, id)
		}
	}
	spawn := len(l.pf.queue)
	if max := l.pf.maxWorkers - l.pf.workers; spawn > max {
		spawn = max
	}
	l.pf.workers += spawn
	l.pf.mu.Unlock()
	for i := 0; i < spawn; i++ {
		go l.prefetchWorker()
	}
}

func (l *Lazy) prefetchWorker() {
	for {
		l.pf.mu.Lock()
		if len(l.pf.queue) == 0 {
			l.pf.workers--
			if l.pf.workers == 0 {
				l.pf.idle.Broadcast()
			}
			l.pf.mu.Unlock()
			return
		}
		id := l.pf.queue[0]
		l.pf.queue = l.pf.queue[1:]
		l.pf.mu.Unlock()
		l.prefetchOne(id)
	}
}

// prefetchOne synthesizes id into the cache if absent, outside every
// stripe lock, dropping the copy when a lessee raced it in or when the
// stripe is fully pinned (prefetch never forces overflow).
func (l *Lazy) prefetchOne(id int) {
	st := l.lockStripe(id)
	if _, ok := st.cache[id]; ok {
		st.mu.Unlock()
		return
	}
	st.mu.Unlock()

	ds := l.base.Subset(l.asg.Rows(id))

	st = l.lockStripe(id)
	defer st.mu.Unlock()
	if _, ok := st.cache[id]; ok {
		return
	}
	if !l.shrinkLocked(st) {
		return
	}
	st.tick++
	st.cache[id] = &lazyShard{ds: ds, used: st.tick, prefetched: true}
}

// CancelPrefetch drops every queued-but-unstarted prefetch and blocks
// until in-flight synthesis finishes. After it returns no pool goroutine
// touches the cache until the next Prefetch call.
func (l *Lazy) CancelPrefetch() {
	l.pf.mu.Lock()
	defer l.pf.mu.Unlock()
	l.pf.queue = nil
	for l.pf.workers > 0 {
		l.pf.idle.Wait()
	}
}

// WaitPrefetch blocks until the prefetch queue has fully drained — every
// enqueued id processed, every worker exited. It is the deterministic
// warm-up used by tests and benchmarks; engines use CancelPrefetch.
func (l *Lazy) WaitPrefetch() {
	l.pf.mu.Lock()
	defer l.pf.mu.Unlock()
	for l.pf.workers > 0 || len(l.pf.queue) > 0 {
		l.pf.idle.Wait()
	}
}
