package fl

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// AsyncOptions configures the buffered-asynchronous (FedBuff-style)
// aggregation mode run by RunAsync. Zero fields take the documented
// defaults, so the zero value is a valid configuration.
type AsyncOptions struct {
	// Buffer is B, the number of upload arrivals folded into the
	// staleness-weighted accumulator between server commits (default 4).
	Buffer int
	// InFlight is M, how many clients the server keeps training
	// concurrently (default Config.ClientsPerRound).
	InFlight int
	// Commits is the number of server version bumps to run (default
	// Config.Rounds) — the async analogue of the round count.
	Commits int
	// StalenessExp is p in the staleness weight 1/(1+s)^p, where s is
	// how many versions the server committed between a client's fetch and
	// its arrival (default 0.5, FedBuff's polynomial damping).
	StalenessExp float64
}

// Each commit steps the server by w ← w + 1/B · Σ weight·Δ (FedBuff's
// server learning rate η = 1). An activation's simulated local-training
// wall-clock is computeSec times a lognormal multiplier of σ
// computeJitter, which is what spreads arrival times even on an ideal
// network.
const computeSec, computeJitter = 1, 0.5

// Validate reports the first problem with the options.
func (o AsyncOptions) Validate() error {
	switch {
	case o.Buffer < 0:
		return fmt.Errorf("fl: async Buffer = %d, must be non-negative", o.Buffer)
	case o.InFlight < 0:
		return fmt.Errorf("fl: async InFlight = %d, must be non-negative", o.InFlight)
	case o.Commits < 0:
		return fmt.Errorf("fl: async Commits = %d, must be non-negative", o.Commits)
	case !(o.StalenessExp >= 0):
		return fmt.Errorf("fl: async StalenessExp = %v, must be non-negative", o.StalenessExp)
	}
	return nil
}

// resolve fills the documented defaults against the run configuration.
func (o AsyncOptions) resolve(cfg Config) AsyncOptions {
	if o.Buffer == 0 {
		o.Buffer = 4
	}
	if o.InFlight == 0 {
		o.InFlight = cfg.ClientsPerRound
	}
	if o.Commits == 0 {
		o.Commits = cfg.Rounds
	}
	if o.StalenessExp == 0 {
		o.StalenessExp = 0.5
	}
	return o
}

// asyncAlgorithm labels RunAsync's histories and snapshots.
const asyncAlgorithm = "fedbuff"

// asyncJob is one dispatched client activation in flight between fetch
// and arrival.
type asyncJob struct {
	seq     int // dispatch order, the arrival tie-break
	client  int
	version int            // server version at fetch time
	arrival float64        // simulated arrival instant (seconds)
	fetch   nn.ParamVector // snapshot the client trains from (engine-owned)
	// crashed marks a fault-injected crash: the client fetched but will
	// never train or upload.
	crashed bool
	// seed is the job's training stream, one draw of the per-job parent
	// taken at dispatch: a Split whose child is built when the job trains.
	seed int64

	// The training queue's fields, guarded by its lock: trained is the
	// upload buffer, leased at enqueue and filled by whichever worker
	// trains the job; finished and err say whether and how that ended.
	trained  nn.ParamVector
	finished bool
	err      error
}

// before orders jobs by arrival, ties broken by dispatch order: the
// order the server folds them in.
func (j *asyncJob) before(o *asyncJob) bool {
	return j.arrival < o.arrival || j.arrival == o.arrival && j.seq < o.seq
}

// asyncState is RunAsync's loop state, and — with the session's shared
// body — everything needed to reconstruct it at a commit boundary. The
// staleness accumulator is deliberately absent: commits fire exactly when
// it is zeroed, so every snapshot point has an empty window.
type asyncState struct {
	now        float64 // simulated clock (seconds)
	seq        int     // next dispatch's sequence number
	version    int     // server model version
	arrivals   int
	dispatches int
	// available is the sorted pool of clients not currently in flight.
	available []int
	global    nn.ParamVector
	inflight  []*asyncJob
}

// comm is the run's traffic so far in model-sized units.
func (st *asyncState) comm() CommProfile {
	return CommProfile{ModelsDown: st.dispatches, ModelsUp: st.arrivals}
}

// RunAsync executes a buffered-asynchronous FedAvg-style simulation
// (FedBuff; Nguyen et al., AISTATS 2022): the server keeps
// opts.InFlight clients training concurrently, folds each upload into a
// staleness-weighted accumulator the moment its simulated arrival time
// lands, and commits a version bump every opts.Buffer arrivals:
//
//	w ← w + η/B · Σ_arrivals Δ_c / (1 + staleness_c)^p
//
// Arrival times come from the configured NetworkModel (per-dispatch
// lognormal link draws, exactly the sync transport's jitter scheme) plus
// a lognormal compute-time draw, so fast clients really do lap slow ones
// and staleness is earned rather than scripted.
//
// Local training runs on a standing queue (trainQueue): every dispatch
// that will upload enqueues its job, trainers take the queued job that
// arrives first, and the arrival pop waits only for its own job, so
// folds, commits, evaluations and snapshot writes overlap the training
// of the clients still in flight.
//
// Determinism contract (the async half of the split contract in
// docs/ARCHITECTURE.md): every random draw — client selection, link and
// compute times, per-job training streams, the Byzantine seed split —
// happens serially at dispatch time, and folds apply in (arrival, seq)
// order. Which worker trains a job, and when, depends on timing, but each
// job trains from its own immutable snapshot with its own pre-drawn
// stream, and a snapshot carries no trained upload (a resumed run trains
// its in-flight jobs again), so histories and snapshots are
// byte-identical at every Config.Parallelism, Config.Budget and
// scheduler -jobs setting for a fixed seed.
//
// The simulated wire contributes sizes and times only: payload values
// cross losslessly (a lossy codec still prices EncodedSize bytes; value
// corruption under async delta references is future work). Byzantine
// options apply exactly as in Run — label-flip through the shadow
// environment, model-poisoning at the fold.
func RunAsync(env *Env, cfg Config, opts AsyncOptions) (*History, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.resolve(cfg)
	s, err := newSession("RunAsync", asyncAlgorithm, env, cfg, opts.Commits)
	if err != nil {
		return nil, err
	}
	defer s.close()
	codec, err := nn.CodecByName(cfg.Transport.Codec)
	if err != nil {
		return nil, err
	}
	netModel, err := NetworkByName(cfg.Transport.Network)
	if err != nil {
		return nil, err
	}
	env, faults, adv := s.env, s.faults, s.adv

	st := &asyncState{global: nn.FlattenParams(env.Model.New(s.rng[streamInit].Split()).Params())}
	dim := len(st.global)
	wireBytes := codec.EncodedSize(dim)

	// Fetch and upload buffers recycle through a freelist, touched only
	// by this goroutine: at most 2·InFlight parameter-sized vectors are
	// ever live.
	var free []nn.ParamVector
	lease := func() nn.ParamVector {
		if len(free) > 0 {
			v := free[len(free)-1]
			free = free[:len(free)-1]
			return v
		}
		return make(nn.ParamVector, dim)
	}
	release := func(vs ...nn.ParamVector) { free = append(free, vs...) }

	// The available pool is sorted, so the uniform draw below is a pure
	// function of the selection stream. Virtualized federations admit
	// only trainable (non-empty) clients — at million-client scale empty
	// shards are expected, not exceptional; eager federations keep every
	// client, so an empty eager shard still fails training.
	st.available = make([]int, 0, s.n)
	for i := 0; i < s.n; i++ {
		if env.Fed.Trainable(i) {
			st.available = append(st.available, i)
		}
	}
	if len(st.available) == 0 {
		return nil, fmt.Errorf("fl: RunAsync: no trainable clients")
	}
	if opts.InFlight > len(st.available) {
		opts.InFlight = len(st.available)
	}
	s.spec = asyncCkptSpec(cfg, opts, s.n, dim)

	acc := make(nn.ParamVector, dim)
	// folded counts the current window's accepted uploads — the quorum
	// the commit is judged against.
	var folded, commits int
	if cfg.Checkpoint.Resume {
		commits, err = s.resume(func(_ int, d *nn.StateDecoder) (err error) {
			st, err = parseAsyncState(d, s.n, dim)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	selRNG, timeRNG, jobRNG := s.rng[streamSelect], s.rng[streamEngineA], s.rng[streamEngineB]

	// Every return path drops the jobs not yet started and joins the
	// running ones before the session closes.
	q := newTrainQueue(env, cfg)
	defer q.close()
	enqueue := func(j *asyncJob) {
		if !j.crashed {
			j.trained = lease()
			q.push(j)
		}
	}

	// The async engine's "plan" is the dispatch draw itself: a client's
	// shard is not touched until a trainer takes its job, so warming it
	// at dispatch overlaps synthesis with the training queued ahead of it.
	var prefetchBuf [1]int
	dispatch := func() {
		idx := selRNG.Intn(len(st.available))
		client := st.available[idx]
		st.available = append(st.available[:idx], st.available[idx+1:]...)
		if s.prefetch != nil {
			// Prefetch copies the id synchronously, so the buffer is
			// immediately reusable.
			prefetchBuf[0] = client
			s.prefetch.Prefetch(prefetchBuf[:])
		}
		// Per-dispatch simulated times, drawn in a fixed order: the link
		// multipliers, then compute.
		down, up, lat := netModel.drawLink(timeRNG)
		compute := computeSec * math.Exp(computeJitter*timeRNG.Normal(0, 1))
		elapsed := 2*lat + compute
		if down > 0 {
			elapsed += float64(wireBytes) / down
		}
		if up > 0 {
			elapsed += float64(wireBytes) / up
		}
		if faults.Straggles(st.seq, client) {
			// A straggler spike stretches the whole activation — slow
			// links, slow compute — so the arrival lands later, earning
			// real staleness (the async analogue of the sync transport's
			// rate/latency inflation).
			elapsed *= faults.StraggleFactor()
		}
		fetch := lease()
		copy(fetch, st.global)
		// Fault decisions key on (dispatch seq, client), so they are
		// identical at every worker count and free to recompute on resume.
		// A crashed client fetched (bytes down are already spent) but will
		// never train or upload, so it is never enqueued.
		job := &asyncJob{
			seq: st.seq, client: client, version: st.version, arrival: st.now + elapsed,
			fetch: fetch, seed: jobRNG.Int63(), crashed: faults.Crashes(st.seq, client),
		}
		st.inflight = append(st.inflight, job)
		enqueue(job)
		st.seq++
		st.dispatches++
		s.cum.BytesDown += wireBytes
	}

	if !cfg.Checkpoint.Resume {
		for i := 0; i < opts.InFlight; i++ {
			dispatch()
		}
	} else if commits < opts.Commits {
		// A snapshot carries no trained uploads: its in-flight jobs train
		// again. It was taken inside the commit block, before the
		// dispatch that closes a loop iteration — run that dispatch now.
		for _, j := range st.inflight {
			enqueue(j)
		}
		dispatch()
	}

	for commits < opts.Commits {
		// Pop the earliest arrival (ties broken by dispatch order). The
		// in-flight set is small (M), so a linear scan is the queue.
		inflight := st.inflight
		best := 0
		for i := 1; i < len(inflight); i++ {
			if inflight[i].before(inflight[best]) {
				best = i
			}
		}
		job := inflight[best]
		if !job.crashed {
			if err := q.wait(job); err != nil {
				return nil, fmt.Errorf("fl: RunAsync: %w", err)
			}
		}
		st.inflight = append(inflight[:best], inflight[best+1:]...)
		st.now = job.arrival

		if job.crashed {
			// Fault-injected crash: the slot completes (the server times
			// the client out and moves on) but nothing crossed the uplink.
			s.cum.Crashes++
			release(job.fetch)
		} else {
			s.cum.BytesUp += wireBytes
			switch {
			case faults.Drops(job.seq, job.client, 0),
				faults.Truncates(job.seq, job.client, 0),
				faults.Corrupts(job.seq, job.client, 0):
				// The async wire carries values losslessly, so a
				// truncated or corrupted payload is rejected whole at the
				// server door — observably a drop, and counted as one.
				s.cum.FaultDrops++
			default:
				upload := adv.CorruptUpload(job.client, job.trained)
				if tensor.AllFinite(upload) {
					// Fold: staleness-weighted model delta against the fetched
					// snapshot. Non-finite uploads are dropped at the server door,
					// the same screen ReduceUploads applies in the sync engine.
					staleness := float64(st.version - job.version)
					weight := 1 / math.Pow(1+staleness, opts.StalenessExp)
					for i := range acc {
						acc[i] += weight * (upload[i] - job.fetch[i])
					}
					folded++
				}
				if faults.Duplicates(job.seq, job.client) {
					// The retransmit arrives twice; the server dedupes but
					// the duplicate bytes were spent.
					s.cum.BytesUp += wireBytes
					s.cum.Duplicates++
				}
			}
			release(job.fetch, job.trained)
		}
		st.arrivals++
		insertSorted(&st.available, job.client)

		if st.arrivals%opts.Buffer == 0 {
			if cfg.BelowQuorum(folded) {
				// Degraded commit: the window's accepted uploads missed the
				// quorum, so the thin accumulator is discarded and the model
				// survives unchanged. The version still bumps — staleness is
				// wall-clock truth, not a function of acceptance.
				for i := range acc {
					acc[i] = 0
				}
				s.cum.Degraded++
			} else {
				scale := 1 / float64(opts.Buffer)
				for i := range st.global {
					st.global[i] += scale * acc[i]
					acc[i] = 0
				}
			}
			folded = 0
			st.version++
			commits++
			if faults.Stalls(commits - 1) {
				// Server stall: the commit pauses before the next dispatch
				// goes out, shifting only work scheduled after it.
				st.now += faults.StallSec()
				s.cum.Stalls++
			}
			adv.BeginRound()
			if s.evalDue(commits) {
				if err := s.eval(commits, st.global, float64(st.dispatches+st.arrivals)); err != nil {
					return nil, err
				}
			}
			if write, stop := s.checkpointDue(commits); write {
				if err := s.save(commits, st.encode); err != nil {
					return nil, err
				}
				if stop {
					return s.finish(st.comm()), ErrStopped
				}
			}
			if commits == opts.Commits {
				break
			}
		}
		dispatch()
	}
	return s.finish(st.comm()), nil
}

// trainQueue is one RunAsync call's standing training queue. Trainers
// always take the queued job with the earliest (arrival, seq), so the
// next upload the server needs is the next one trained. The calling
// goroutine is the inline worker: it trains queued jobs only while an
// arrival pop waits for its own. Extra trainers follow Config.Budget's
// protocol: each runs on a fan-out token from TryAcquire, at most
// Workers()−1 at a time, and hands the token back when it finds the queue
// empty.
type trainQueue struct {
	env       *Env
	spec      LocalSpec
	budget    *WorkerBudget
	maxExtras int

	mu       sync.Mutex
	finished sync.Cond // broadcast whenever a job finishes
	queued   []*asyncJob
	extras   int // live extra trainers
	wg       sync.WaitGroup
}

func newTrainQueue(env *Env, cfg Config) *trainQueue {
	q := &trainQueue{env: env, spec: cfg.LocalSpec(), budget: cfg.Budget, maxExtras: cfg.Workers() - 1}
	q.finished.L = &q.mu
	return q
}

// push enqueues j, whose fetch and trained buffers are set, and starts
// an extra trainer when the allowance has room for one.
func (q *trainQueue) push(j *asyncJob) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.queued = append(q.queued, j)
	if q.extras < q.maxExtras && q.budget.TryAcquire(1) == 1 {
		q.extras++
		q.wg.Add(1)
		go q.trainer()
	}
}

// trainer is one extra worker: it trains queued jobs until the queue is
// empty, then hands its token back.
func (q *trainQueue) trainer() {
	defer q.wg.Done()
	q.mu.Lock()
	for q.trainNext() {
	}
	q.extras--
	q.mu.Unlock()
	q.budget.ReleaseN(1)
}

// trainNext trains the earliest queued job and reports whether there was
// one. It is called with mu held and releases it while the job trains.
func (q *trainQueue) trainNext() bool {
	if len(q.queued) == 0 {
		return false
	}
	best := 0
	for i, j := range q.queued {
		if j.before(q.queued[best]) {
			best = i
		}
	}
	j := q.queued[best]
	q.queued = slices.Delete(q.queued, best, best+1)
	q.mu.Unlock()
	spec := q.spec
	spec.Init, spec.Out = j.fetch, j.trained
	_, err := trainOne(q.env, LocalJob{Client: j.client, Spec: spec, RNG: tensor.NewRNG(j.seed)})
	q.mu.Lock()
	j.finished, j.err = true, err
	q.finished.Broadcast()
	return true
}

// wait returns j's training error once j has finished, training queued
// jobs on the calling goroutine while it waits. (No deferred unlock: mu
// is not held while a job trains, so a panic there must not unlock it.)
func (q *trainQueue) wait(j *asyncJob) error {
	q.mu.Lock()
	for !j.finished {
		if !q.trainNext() {
			q.finished.Wait()
		}
	}
	err := j.err
	q.mu.Unlock()
	return err
}

// close drops the jobs not yet started and joins the running ones.
func (q *trainQueue) close() {
	q.mu.Lock()
	q.queued = nil
	q.mu.Unlock()
	q.wg.Wait()
}

// insertSorted puts c back into the sorted available pool.
func insertSorted(pool *[]int, c int) {
	s := *pool
	i := sort.SearchInts(s, c)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = c
	*pool = s
}
