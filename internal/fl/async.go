package fl

import (
	"fmt"
	"math"
	"sort"

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
	// ServerLR is the server step η applied at each commit:
	// w ← w + η/B · Σ weight·Δ (default 1).
	ServerLR float64
	// ComputeSec is the median simulated local-training wall-clock per
	// activation (default 1s); ComputeJitter is the σ of its lognormal
	// multiplier (default 0.5), which is what spreads arrival times even
	// on an ideal network.
	ComputeSec, ComputeJitter float64
}

// Validate reports the first problem with the options.
func (o AsyncOptions) Validate() error {
	switch {
	case o.Buffer < 0:
		return fmt.Errorf("fl: async Buffer = %d, must be non-negative", o.Buffer)
	case o.InFlight < 0:
		return fmt.Errorf("fl: async InFlight = %d, must be non-negative", o.InFlight)
	case o.Commits < 0:
		return fmt.Errorf("fl: async Commits = %d, must be non-negative", o.Commits)
	case o.StalenessExp < 0:
		return fmt.Errorf("fl: async StalenessExp = %v, must be non-negative", o.StalenessExp)
	case o.ServerLR < 0:
		return fmt.Errorf("fl: async ServerLR = %v, must be non-negative", o.ServerLR)
	case o.ComputeSec < 0 || o.ComputeJitter < 0:
		return fmt.Errorf("fl: async compute model (%v, %v) must be non-negative", o.ComputeSec, o.ComputeJitter)
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
	if o.ServerLR == 0 {
		o.ServerLR = 1
	}
	if o.ComputeSec == 0 {
		o.ComputeSec = 1
	}
	if o.ComputeJitter == 0 {
		o.ComputeJitter = 0.5
	}
	return o
}

// asyncJob is one dispatched client activation in flight between fetch
// and arrival.
type asyncJob struct {
	seq     int // dispatch order, the arrival tie-break
	client  int
	version int            // server version at fetch time
	arrival float64        // simulated arrival instant (seconds)
	fetch   nn.ParamVector // snapshot the client trains from (engine-owned)
	trained nn.ParamVector // filled by the parallel training pass
	done    bool
	rng     *tensor.RNG
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
// Determinism contract (the async half of the split contract in
// docs/ARCHITECTURE.md): every random draw — client selection, link and
// compute times, per-job training streams, the Byzantine seed split —
// happens serially at dispatch time, and folds apply in (arrival, seq)
// order. Local training of in-flight clients fans out over the worker
// pool, but each job trains from its own immutable snapshot with its own
// pre-split RNG, so histories are byte-identical at every
// Config.Parallelism / scheduler -jobs setting for a fixed seed.
//
// The simulated wire contributes sizes and times only: payload values
// cross losslessly (a lossy codec still prices EncodedSize bytes; value
// corruption under async delta references is future work). Byzantine
// options apply exactly as in Run — label-flip through the shadow
// environment, model-poisoning at the fold.
func RunAsync(env *Env, cfg Config, opts AsyncOptions) (*History, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.resolve(cfg)
	n := env.NumClients()
	if n == 0 {
		return nil, fmt.Errorf("fl: RunAsync: environment has no clients")
	}
	codec, err := nn.CodecByName(cfg.Transport.Codec)
	if err != nil {
		return nil, err
	}
	netModel, err := NetworkByName(cfg.Transport.Network)
	if err != nil {
		return nil, err
	}

	rng := tensor.NewRNG(cfg.Seed)
	initRNG := rng.Split()
	selRNG := rng.Split()
	timeRNG := rng.Split()
	jobRNG := rng.Split()
	advRNG := rng.Split()
	// The fault stream is appended after every pre-existing split (the
	// advRNG pattern): a zero-rate plan leaves benign histories
	// bit-unchanged. Fault decisions key on (dispatch seq, client), so
	// they are identical at every worker count and free to recompute on
	// resume. Client churn is a round-calendar concept and applies to the
	// synchronous engine only; its stream is still reserved here so the
	// two engines' split orders stay parallel.
	faultRNG := rng.Split()
	_ = rng.Split() // churn stream, reserved
	faults := NewFaultPlan(cfg.Faults, faultRNG.Int63())

	adv := NewAdversary(cfg.Adversary, n, advRNG)
	adv.BeginRound()
	env = adv.ShadowEnv(env)
	n = env.NumClients() // virtual sybils extend the shadow population

	// The async engine's "plan" is the dispatch draw itself: a client's
	// shard is not touched until the batched training pass of the next
	// arrival pop, so warming it at dispatch overlaps synthesis with the
	// folds, evaluations and arrivals in between. Prefetch draws no RNG,
	// so histories are bit-identical with it on or off.
	restripeSource(env, cfg)
	prefetch := sourcePrefetcher(env, cfg)
	if prefetch != nil {
		defer prefetch.CancelPrefetch()
	}

	global := nn.FlattenParams(env.Model.New(initRNG.Split()).Params())
	dim := len(global)
	wireBytes := codec.EncodedSize(dim)

	// Snapshot/upload buffers recycle through a freelist: at most
	// 2·InFlight parameter-sized vectors are ever live.
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

	// available is the sorted pool of clients not currently in flight, so
	// the uniform draw below is a pure function of the selection stream.
	// Virtualized federations admit only trainable (non-empty) clients —
	// at million-client scale empty shards are expected, not exceptional;
	// eager federations keep every client, preserving the legacy
	// empty-shard training error.
	available := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if env.Fed.Trainable(i) {
			available = append(available, i)
		}
	}
	if len(available) == 0 {
		return nil, fmt.Errorf("fl: RunAsync: no trainable clients")
	}
	if opts.InFlight > len(available) {
		opts.InFlight = len(available)
	}

	hist := &History{Algorithm: "fedbuff"}
	acc := make(nn.ParamVector, dim)
	var (
		inflight   []*asyncJob
		now        float64
		seq        int
		version    int
		arrivals   int
		dispatches int

		// folded counts the current window's accepted uploads — the
		// quorum the commit is judged against.
		folded                                      int
		crashes, faultDrops, duplicates, stallCount int
		degraded                                    int
		commits                                     int
	)
	ck := cfg.Checkpoint

	var prefetchBuf [1]int
	dispatch := func() {
		idx := selRNG.Intn(len(available))
		client := available[idx]
		available = append(available[:idx], available[idx+1:]...)
		if prefetch != nil {
			// Warm the dispatched client's shard now; it is trained no
			// earlier than the next arrival pop. Prefetch copies the id
			// synchronously, so the buffer is immediately reusable.
			prefetchBuf[0] = client
			prefetch.Prefetch(prefetchBuf[:])
		}
		// Per-dispatch simulated times, drawn in a fixed order: link
		// multipliers exactly like Transport.BeginRound, then compute.
		down, up, lat := mbpsToBytesPerSec(netModel.DownMbps), mbpsToBytesPerSec(netModel.UpMbps), netModel.LatencySec
		if netModel.Jitter > 0 {
			down *= math.Exp(netModel.Jitter * timeRNG.Normal(0, 1))
			up *= math.Exp(netModel.Jitter * timeRNG.Normal(0, 1))
			lat *= math.Exp(netModel.Jitter * timeRNG.Normal(0, 1))
		}
		compute := opts.ComputeSec * math.Exp(opts.ComputeJitter*timeRNG.Normal(0, 1))
		elapsed := 2*lat + compute
		if down > 0 {
			elapsed += float64(wireBytes) / down
		}
		if up > 0 {
			elapsed += float64(wireBytes) / up
		}
		if faults.Straggles(seq, client) {
			// A straggler spike stretches the whole activation — slow
			// links, slow compute — so the arrival lands later, earning
			// real staleness (the async analogue of the sync transport's
			// rate/latency inflation).
			elapsed *= faults.StraggleFactor()
		}
		fetch := lease()
		copy(fetch, global)
		job := &asyncJob{
			seq: seq, client: client, version: version,
			arrival: now + elapsed, fetch: fetch, rng: jobRNG.Split(),
		}
		if faults.Crashes(seq, client) {
			// The client dies mid-round: it fetched (bytes down are
			// already spent) but will never train or upload. done with a
			// nil trained vector is the crash marker the fold recognises.
			job.done = true
		}
		inflight = append(inflight, job)
		seq++
		dispatches++
		hist.BytesDown += wireBytes
	}

	startFresh := true
	if ck.Active() && ck.Resume {
		snap, err := loadAsyncCheckpoint(ck.Path, cfg, opts, n, dim)
		if err != nil {
			return nil, fmt.Errorf("fl: RunAsync: %w", err)
		}
		now, seq, version = snap.now, snap.seq, snap.version
		arrivals, dispatches = snap.arrivals, snap.dispatches
		crashes, faultDrops, duplicates = snap.crashes, snap.faultDrops, snap.dups
		stallCount, degraded = snap.stalls, snap.degraded
		hist.BytesDown, hist.BytesUp = snap.bytesDown, snap.bytesUp
		hist.Metrics = snap.metrics
		selRNG = tensor.RestoreRNG(snap.selState)
		timeRNG = tensor.RestoreRNG(snap.timeState)
		jobRNG = tensor.RestoreRNG(snap.jobState)
		available = snap.available
		copy(global, snap.global)
		inflight = make([]*asyncJob, len(snap.jobs))
		for i, js := range snap.jobs {
			inflight[i] = &asyncJob{
				seq: js.seq, client: js.client, version: js.version,
				arrival: js.arrival, fetch: js.fetch, trained: js.trained,
				done: js.done, rng: tensor.RestoreRNG(js.rng),
			}
		}
		commits = snap.nextCommit
		startFresh = false
		// The snapshot was taken inside the commit block, before the
		// dispatch that closes a loop iteration — run that dispatch now.
		if commits < opts.Commits {
			dispatch()
		}
	}
	if startFresh {
		for i := 0; i < opts.InFlight; i++ {
			dispatch()
		}
	}

	evalNow := func(commit int) error {
		accT, loss, err := evaluate(env.Model, global, env.Fed.Test, 64, cfg.Allowance())
		if err != nil {
			return fmt.Errorf("fl: RunAsync: eval commit %d: %w", commit, err)
		}
		hist.Metrics = append(hist.Metrics, RoundMetric{
			Round:               commit,
			TestAcc:             accT,
			TestLoss:            loss,
			CumModelEquivalents: float64(dispatches + arrivals),
			CumBytesDown:        hist.BytesDown,
			CumBytesUp:          hist.BytesUp,
			CumFaultDrops:       faultDrops,
			CumDuplicates:       duplicates,
			CumStalls:           stallCount,
			CumCrashes:          crashes,
			CumDegraded:         degraded,
		})
		return nil
	}

	finish := func() {
		hist.Comm = CommProfile{ModelsDown: dispatches, ModelsUp: arrivals}
		hist.Crashes = crashes
		hist.FaultDrops = faultDrops
		hist.Duplicates = duplicates
		hist.Stalls = stallCount
		hist.Degraded = degraded
	}

	for commits < opts.Commits {
		// Pop the earliest arrival (ties broken by dispatch order). The
		// in-flight set is small (M), so a linear scan is the queue.
		best := 0
		for i := 1; i < len(inflight); i++ {
			if inflight[i].arrival < inflight[best].arrival ||
				(inflight[i].arrival == inflight[best].arrival && inflight[i].seq < inflight[best].seq) {
				best = i
			}
		}
		job := inflight[best]
		if !job.done {
			// Batch-train every untrained in-flight client in one parallel
			// pass: each trains from its own snapshot with its own
			// pre-split stream, so results are scheduling-independent and
			// the engine still gets its fan-out.
			if err := trainPending(env, cfg, inflight); err != nil {
				releaseAll(inflight, release)
				return nil, fmt.Errorf("fl: RunAsync: %w", err)
			}
		}
		inflight = append(inflight[:best], inflight[best+1:]...)
		now = job.arrival

		if job.trained == nil {
			// Fault-injected crash: the slot completes (the server times
			// the client out and moves on) but nothing crossed the uplink.
			crashes++
			release(job.fetch)
		} else {
			hist.BytesUp += wireBytes
			switch {
			case faults.Drops(job.seq, job.client, 0),
				faults.Truncates(job.seq, job.client, 0),
				faults.Corrupts(job.seq, job.client, 0):
				// The async wire carries values losslessly, so a
				// truncated or corrupted payload is rejected whole at the
				// server door — observably a drop, and counted as one.
				faultDrops++
			default:
				upload := adv.CorruptUpload(job.client, job.trained)
				if finiteVector(upload) {
					// Fold: staleness-weighted model delta against the fetched
					// snapshot. Non-finite uploads are dropped at the server door,
					// the same screen ReduceUploads applies in the sync engine.
					staleness := float64(version - job.version)
					weight := 1 / math.Pow(1+staleness, opts.StalenessExp)
					for i := range acc {
						acc[i] += weight * (upload[i] - job.fetch[i])
					}
					folded++
				}
				if faults.Duplicates(job.seq, job.client) {
					// The retransmit arrives twice; the server dedupes but
					// the duplicate bytes were spent.
					hist.BytesUp += wireBytes
					duplicates++
				}
			}
			release(job.fetch, job.trained)
		}
		arrivals++
		insertSorted(&available, job.client)

		if arrivals%opts.Buffer == 0 {
			if cfg.MinUploads > 0 && folded < cfg.MinUploads {
				// Degraded commit: the window's accepted uploads missed the
				// quorum, so the thin accumulator is discarded and the model
				// survives unchanged. The version still bumps — staleness is
				// wall-clock truth, not a function of acceptance.
				for i := range acc {
					acc[i] = 0
				}
				degraded++
			} else {
				scale := opts.ServerLR / float64(opts.Buffer)
				for i := range global {
					global[i] += scale * acc[i]
					acc[i] = 0
				}
			}
			folded = 0
			version++
			commits++
			if faults.Stalls(commits - 1) {
				// Server stall: the commit pauses before the next dispatch
				// goes out, shifting only work scheduled after it.
				now += faults.StallSec()
				stallCount++
			}
			adv.BeginRound()
			last := commits == opts.Commits
			if last || (cfg.EvalEvery > 0 && commits%cfg.EvalEvery == 0) {
				if err := evalNow(commits); err != nil {
					releaseAll(inflight, release)
					return nil, err
				}
			}
			if ck.Active() {
				stopHere := ck.StopAfterRound > 0 && commits == ck.StopAfterRound
				if stopHere || (ck.Every > 0 && commits%ck.Every == 0) {
					snap := &asyncSnapshot{
						nextCommit: commits, now: now, seq: seq, version: version,
						arrivals: arrivals, dispatches: dispatches,
						crashes: crashes, faultDrops: faultDrops, dups: duplicates,
						stalls: stallCount, degraded: degraded,
						bytesDown: hist.BytesDown, bytesUp: hist.BytesUp,
						selState: selRNG.State(), timeState: timeRNG.State(), jobState: jobRNG.State(),
						available: available, global: global, metrics: hist.Metrics,
					}
					snap.jobs = make([]asyncJobSnap, len(inflight))
					for i, j := range inflight {
						snap.jobs[i] = asyncJobSnap{
							seq: j.seq, client: j.client, version: j.version,
							arrival: j.arrival, done: j.done,
							fetch: j.fetch, trained: j.trained, rng: j.rng.State(),
						}
					}
					if err := saveAsyncCheckpoint(ck.Path, cfg, opts, n, dim, snap); err != nil {
						releaseAll(inflight, release)
						return nil, fmt.Errorf("fl: RunAsync: checkpoint commit %d: %w", commits, err)
					}
				}
				if stopHere {
					releaseAll(inflight, release)
					finish()
					return hist, ErrStopped
				}
			}
			if last {
				break
			}
		}
		dispatch()
	}
	finish()
	return hist, nil
}

// trainPending runs local training for every not-yet-trained in-flight
// job in one parallel batch, writing each result into an engine-owned
// upload buffer.
func trainPending(env *Env, cfg Config, inflight []*asyncJob) error {
	var pending []*asyncJob
	for _, j := range inflight {
		if !j.done {
			pending = append(pending, j)
		}
	}
	jobs := make([]LocalJob, len(pending))
	for i, j := range pending {
		jobs[i] = LocalJob{
			Client: j.client,
			Spec: LocalSpec{
				Init:      j.fetch,
				Epochs:    cfg.LocalEpochs,
				BatchSize: cfg.BatchSize,
				LR:        cfg.LR,
				Momentum:  cfg.Momentum,
			},
			RNG: j.rng,
		}
	}
	results, err := TrainAll(env, jobs, cfg.Allowance())
	if err != nil {
		return err
	}
	for i, j := range pending {
		j.trained = results[i].Params
		j.done = true
	}
	return nil
}

// releaseAll hands the in-flight buffers back on error paths, keeping the
// engine leak-free even when an attacker-induced failure aborts the run
// (the freelist is function-local, so this is bookkeeping hygiene; the
// replica-pool leases inside TrainAll are already released by TrainLocal
// itself — pinned by the leak test).
func releaseAll(inflight []*asyncJob, release func(vs ...nn.ParamVector)) {
	for _, j := range inflight {
		release(j.fetch)
		if j.trained != nil {
			release(j.trained)
		}
	}
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
