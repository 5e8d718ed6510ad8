package main

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"fedcross/internal/data"
	"fedcross/internal/fl"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch; Parent indexes the tracer's span list (-1 for
// a run's root); spans of one simulation share Run.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// Span names. A hold is the interval a shard lease is out: the engines
// lease for exactly one local pass, so hold time is train-busy time.
const (
	spanRun    = "fl.run"
	spanRound  = "algo.round"
	spanGlobal = "algo.global"
	spanShard  = "data.shard"
	spanHold   = "fl.train_hold"
	spanReduce = "fl.reduce"
)

// tracer records spans from the benchmark's own wrappers around the
// interfaces the engine already accepts. Spans stay in memory; counters
// for the kernel backend are plain atomics because a span per GEMM would
// cost more than the GEMM.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	run   int         // id of the simulation being traced
	root  int         // index of that simulation's fl.run span
	round int         // index of the open algo.round span, or -1
	holds map[int]int // client id -> index of its open hold span

	gemm, elem kernelCounter
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), root: -1, round: -1, holds: map[int]int{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the innermost open engine span.
func (t *tracer) begin(name string) int {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.root
	if t.round >= 0 {
		parent = t.round
	}
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Run: t.run})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	now := t.now()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// beginRun opens the root span of one simulation; endRun closes it.
func (t *tracer) beginRun(id int) {
	t.mu.Lock()
	t.run, t.root, t.round = id, -1, -1
	t.mu.Unlock()
	root := t.begin(spanRun)
	t.mu.Lock()
	t.root = root
	t.mu.Unlock()
}

func (t *tracer) endRun() {
	t.mu.Lock()
	root := t.root
	t.root = -1
	t.mu.Unlock()
	t.end(root)
}

// tracedAlgo stamps Round and Global. It forwards TransportUser and
// RoundCheckpointer unconditionally: an inner algorithm without them
// never receives a transport and refuses checkpoints, exactly as it
// would unwrapped. Selector changes selection and disables prefetch
// lookahead merely by being present, so it lives on tracedSelector.
type tracedAlgo struct {
	inner fl.Algorithm
	t     *tracer
}

var (
	_ fl.Algorithm         = (*tracedAlgo)(nil)
	_ fl.TransportUser     = (*tracedAlgo)(nil)
	_ fl.RoundCheckpointer = (*tracedAlgo)(nil)
	_ fl.Selector          = (*tracedSelector)(nil)
)

func (t *tracer) wrapAlgo(a fl.Algorithm) fl.Algorithm {
	ta := &tracedAlgo{inner: a, t: t}
	if s, ok := a.(fl.Selector); ok {
		return &tracedSelector{tracedAlgo: ta, sel: s}
	}
	return ta
}

func (a *tracedAlgo) Name() string                   { return a.inner.Name() }
func (a *tracedAlgo) Category() string               { return a.inner.Category() }
func (a *tracedAlgo) RoundComm(k int) fl.CommProfile { return a.inner.RoundComm(k) }

func (a *tracedAlgo) Init(env *fl.Env, cfg fl.Config, rng *tensor.RNG) error {
	return a.inner.Init(env, cfg, rng)
}

func (a *tracedAlgo) Round(r int, selected []int) error {
	i := a.t.begin(spanRound)
	a.t.mu.Lock()
	a.t.round = i
	a.t.mu.Unlock()
	err := a.inner.Round(r, selected)
	a.t.mu.Lock()
	a.t.round = -1
	a.t.mu.Unlock()
	a.t.end(i)
	return err
}

func (a *tracedAlgo) Global() nn.ParamVector {
	i := a.t.begin(spanGlobal)
	defer a.t.end(i)
	return a.inner.Global()
}

func (a *tracedAlgo) SetTransport(tr *fl.Transport) {
	if tu, ok := a.inner.(fl.TransportUser); ok {
		tu.SetTransport(tr)
	}
}

var errNoCheckpoint = errors.New("benchmark: wrapped algorithm does not support round checkpoints")

func (a *tracedAlgo) SaveState(w io.Writer) error {
	if rc, ok := a.inner.(fl.RoundCheckpointer); ok {
		return rc.SaveState(w)
	}
	return errNoCheckpoint
}

func (a *tracedAlgo) LoadState(r io.Reader) error {
	if rc, ok := a.inner.(fl.RoundCheckpointer); ok {
		return rc.LoadState(r)
	}
	return errNoCheckpoint
}

type tracedSelector struct {
	*tracedAlgo
	sel fl.Selector
}

func (a *tracedSelector) SelectClients(r int, rng *tensor.RNG, n, k int) []int {
	return a.sel.SelectClients(r, rng, n, k)
}

// tracedSource stamps every Shard call and the hold that follows it.
// The cache-facing optional interfaces change engine behaviour by being
// present (prefetch lookahead, restriping), so they live on
// tracedCache, used only when the inner source has all three.
type tracedSource struct {
	inner data.ClientSource
	t     *tracer
}

// cacheSource is what data.Lazy offers beyond ClientSource.
type cacheSource interface {
	data.ClientSource
	data.Prefetcher
	data.Restriper
	data.CacheStatser
}

var (
	_ data.ClientSource = (*tracedSource)(nil)
	_ cacheSource       = (*tracedCache)(nil)
	_ cacheSource       = (*data.Lazy)(nil)
)

// wrapEnv returns a copy of env whose shards are leased through the
// tracer. An eager federation is first put behind data.Materialized,
// the product's own bit-identical ClientSource view of it.
func (t *tracer) wrapEnv(env *fl.Env) *fl.Env {
	fed := *env.Fed
	src := fed.Source
	if src == nil {
		src = data.NewMaterialized(fed.Clients)
		fed.Clients = nil
	}
	ts := &tracedSource{inner: src, t: t}
	if cs, ok := src.(cacheSource); ok {
		fed.Source = &tracedCache{tracedSource: ts, cache: cs}
	} else {
		fed.Source = ts
	}
	return &fl.Env{Fed: &fed, Model: env.Model}
}

func (s *tracedSource) NumClients() int  { return s.inner.NumClients() }
func (s *tracedSource) Size(id int) int  { return s.inner.Size(id) }
func (s *tracedSource) Outstanding() int { return s.inner.Outstanding() }

func (s *tracedSource) Shard(id int) *data.Dataset {
	i := s.t.begin(spanShard)
	ds := s.inner.Shard(id)
	s.t.end(i)
	h := s.t.begin(spanHold)
	s.t.mu.Lock()
	s.t.holds[id] = h
	s.t.mu.Unlock()
	return ds
}

func (s *tracedSource) Release(id int) {
	s.t.mu.Lock()
	h, ok := s.t.holds[id]
	delete(s.t.holds, id)
	s.t.mu.Unlock()
	if ok {
		s.t.end(h)
	}
	s.inner.Release(id)
}

type tracedCache struct {
	*tracedSource
	cache cacheSource
}

func (s *tracedCache) Prefetch(ids []int)          { s.cache.Prefetch(ids) }
func (s *tracedCache) CancelPrefetch()             { s.cache.CancelPrefetch() }
func (s *tracedCache) Restripe(stripes int) bool   { return s.cache.Restripe(stripes) }
func (s *tracedCache) CacheStats() data.CacheStats { return s.cache.CacheStats() }

// tracedReducer stamps a configured reducer. The engine injects its
// worker allowance through WorkersSetter, so that is forwarded too.
type tracedReducer struct {
	inner fl.Reducer
	t     *tracer
}

var (
	_ fl.Reducer       = (*tracedReducer)(nil)
	_ fl.WorkersSetter = (*tracedReducer)(nil)
)

func (t *tracer) wrapReducer(r fl.Reducer) fl.Reducer { return &tracedReducer{inner: r, t: t} }

func (r *tracedReducer) Name() string { return r.inner.Name() }

func (r *tracedReducer) Reduce(uploads []nn.ParamVector, weights []float64) nn.ParamVector {
	i := r.t.begin(spanReduce)
	defer r.t.end(i)
	return r.inner.Reduce(uploads, weights)
}

func (r *tracedReducer) SetWorkers(w fl.Workers) {
	if ws, ok := r.inner.(fl.WorkersSetter); ok {
		ws.SetWorkers(w)
	}
}

// kernelCounter accumulates one kernel family's work. Calls and flops
// are exact; busy sums wall time over concurrent callers, so it can
// exceed elapsed time on a multi-worker round.
type kernelCounter struct {
	calls, flops, busyNS atomic.Int64
}

func (c *kernelCounter) add(flops int64, start time.Time) {
	c.calls.Add(1)
	c.flops.Add(flops)
	c.busyNS.Add(int64(time.Since(start)))
}

// tracedBackend counts and times the kernel backend's entry points,
// installed with tensor.SetBackend for the traced pass only.
type tracedBackend struct {
	inner tensor.Backend
	t     *tracer
}

var _ tensor.Backend = tracedBackend{}

func (b tracedBackend) Name() string { return b.inner.Name() }

func (b tracedBackend) Gemm(dst, x, y []float64, m, k, n int, transA, transB, acc bool) {
	start := time.Now()
	b.inner.Gemm(dst, x, y, m, k, n, transA, transB, acc)
	b.t.gemm.add(2*int64(m)*int64(k)*int64(n), start)
}

func (b tracedBackend) GemmBatch(dst, x, y []float64, groups, m, k, n, strideD, strideA, strideB int, transA, transB, acc bool) {
	start := time.Now()
	b.inner.GemmBatch(dst, x, y, groups, m, k, n, strideD, strideA, strideB, transA, transB, acc)
	b.t.gemm.add(2*int64(groups)*int64(m)*int64(k)*int64(n), start)
}

func (b tracedBackend) GemmTransBSegAcc(dst, x, y []float64, m, k, n, seg int) {
	start := time.Now()
	b.inner.GemmTransBSegAcc(dst, x, y, m, k, n, seg)
	b.t.gemm.add(2*int64(m)*int64(k)*int64(n), start)
}

func (b tracedBackend) Add(dst, x, y []float64) {
	start := time.Now()
	b.inner.Add(dst, x, y)
	b.t.elem.add(int64(len(dst)), start)
}

func (b tracedBackend) Scale(dst, x []float64, s float64) {
	start := time.Now()
	b.inner.Scale(dst, x, s)
	b.t.elem.add(int64(len(dst)), start)
}

func (b tracedBackend) Axpy(alpha float64, src, dst []float64) {
	start := time.Now()
	b.inner.Axpy(alpha, src, dst)
	b.t.elem.add(2*int64(len(dst)), start)
}

func (b tracedBackend) AddRow(dst, x, row []float64, rows, cols int) {
	start := time.Now()
	b.inner.AddRow(dst, x, row, rows, cols)
	b.t.elem.add(int64(rows)*int64(cols), start)
}

func (b tracedBackend) ColSumAcc(dst, x []float64, rows, cols int) {
	start := time.Now()
	b.inner.ColSumAcc(dst, x, rows, cols)
	b.t.elem.add(int64(rows)*int64(cols), start)
}
