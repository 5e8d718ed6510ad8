package fl

import (
	"fmt"
	"os"
	"slices"

	"fedcross/internal/data"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// stream names one child of the master seed. The constants' order IS the
// split order, fixed here for Run, RunAsync and CohortPlan alike; every
// history bit depends on it. A new stream is appended before numStreams,
// never inserted: the master is drawn from nowhere else, so a stream
// nobody consumes leaves every existing history unchanged.
type stream int

const (
	streamInit      stream = iota // model (and algorithm) initialisation
	streamSelect                  // cohort selection (sync) · dispatch draws (async)
	streamEngineA                 // sync: unread, held so later streams keep their seeds · async: arrival times
	streamEngineB                 // sync: parent of the per-round link streams · async: parent of the per-job training streams
	streamAdversary               // the compromised-client set
	streamFault                   // one draw: the fault plan's hash seed
	streamChurn                   // one draw: the churn plan's hash seed (sync only)
	numStreams
)

// splitStreams is the one place the master seed is split: children
// streamInit..last, in table order. Each child is its own generator, so
// the order in which children are later drawn from is free.
func splitStreams(seed int64, last stream) (s [numStreams]*tensor.RNG) {
	root := tensor.NewRNG(seed)
	for i := streamInit; i <= last; i++ {
		s[i] = root.Split()
	}
	return s
}

// counters is every cumulative count a run keeps. RoundMetric and History
// publish them under their own field names (metric, finish), snapshots
// carry them (enc.counters, dec.counters) and the transport counts a
// round's wire events in one; a new counter is a field here plus a line
// in each of add, the enc/dec pair, metric, metricCounters and finish.
type counters struct {
	BytesDown, BytesUp int64
	// Stragglers missed the round deadline; Retries, FaultDrops,
	// Duplicates and Stalls are the wire's fault telemetry; Crashes are
	// fault-injected pre-training deaths; Unavailable counts selection
	// slots lost to churn; Degraded counts below-quorum rounds.
	Stragglers, Retries, FaultDrops, Duplicates, Stalls int
	Crashes, Unavailable, Degraded                      int
}

func (c *counters) add(d counters) {
	c.BytesDown += d.BytesDown
	c.BytesUp += d.BytesUp
	c.Stragglers += d.Stragglers
	c.Retries += d.Retries
	c.FaultDrops += d.FaultDrops
	c.Duplicates += d.Duplicates
	c.Stalls += d.Stalls
	c.Crashes += d.Crashes
	c.Unavailable += d.Unavailable
	c.Degraded += d.Degraded
}

// metric publishes the counters as the record of one evaluated round.
func (c counters) metric(round int, acc, loss, modelEquivalents float64) RoundMetric {
	return RoundMetric{
		Round: round, TestAcc: acc, TestLoss: loss, CumModelEquivalents: modelEquivalents,
		CumBytesDown: c.BytesDown, CumBytesUp: c.BytesUp, CumStragglers: c.Stragglers,
		CumRetries: c.Retries, CumFaultDrops: c.FaultDrops, CumDuplicates: c.Duplicates,
		CumStalls: c.Stalls, CumCrashes: c.Crashes, CumUnavailable: c.Unavailable,
		CumDegraded: c.Degraded,
	}
}

// metricCounters is metric's inverse, for serialising a recorded round.
func metricCounters(m RoundMetric) counters {
	return counters{
		BytesDown: m.CumBytesDown, BytesUp: m.CumBytesUp, Stragglers: m.CumStragglers,
		Retries: m.CumRetries, FaultDrops: m.CumFaultDrops, Duplicates: m.CumDuplicates,
		Stalls: m.CumStalls, Crashes: m.CumCrashes, Unavailable: m.CumUnavailable,
		Degraded: m.CumDegraded,
	}
}

// session is the half of a run both engines share: configuration checks,
// the stream table, adversary, fault plan and shadow environment, the
// shard-cache wiring, the run counters and history, the evaluation and
// checkpoint cadence, and the snapshot container. Run adds its round loop
// (transport, churn, planner), RunAsync its arrival/fold/commit loop.
type session struct {
	engine string // "Run" or "RunAsync", for error messages
	// env is the environment algorithms train against: the adversary's
	// shadow view when it flips labels, else the caller's.
	// n and k are its population and the cohort size clamped to it.
	env   *Env
	cfg   Config
	n, k  int
	total int // run length in the engine's unit: rounds or commits

	rng      [numStreams]*tensor.RNG
	adv      *Adversary
	faults   *FaultPlan
	prefetch data.Prefetcher // nil unless the source warms shards ahead

	// tr is the sync engine's wire; it stays nil under RunAsync, which
	// counts its own traffic into cum.
	tr *Transport
	// cum holds what the engine itself counted (or a snapshot restored);
	// totals adds what the wire has carried since.
	cum  counters
	hist *History
	spec ckptSpec
}

// newSession validates the configuration and does the wiring that is the
// same under both engines. algorithm labels the history and snapshots.
// The caller defers close.
func newSession(engine, algorithm string, env *Env, cfg Config, total int) (*session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := env.NumClients()
	if n == 0 {
		return nil, fmt.Errorf("fl: %s: environment has no clients", engine)
	}
	s := &session{engine: engine, cfg: cfg, total: total, hist: &History{Algorithm: algorithm},
		rng: splitStreams(cfg.Seed, numStreams-1)}
	// The attacker set is a pure function of the seed, and each plan
	// consumes one draw of its stream as a hash seed: decisions commute
	// with worker scheduling and a resumed run recomputes them for free.
	s.adv = NewAdversary(cfg.Adversary, n, s.rng[streamAdversary])
	s.faults = NewFaultPlan(cfg.Faults, s.rng[streamFault].Int63())
	// Label-flip attackers train honestly on dishonest data: training,
	// selection and prefetch all lease through the shadow view.
	s.env, s.n = s.adv.ShadowEnv(env), n
	s.k = min(cfg.ClientsPerRound, n)
	// Prefetch touches no RNG, so histories are unchanged by the knob.
	s.prefetch = sourcePrefetcher(s.env, cfg)
	return s, nil
}

// close stops background shard synthesis: an early exit must not leave
// pool goroutines filling a cache nobody will read.
func (s *session) close() {
	if s.prefetch != nil {
		s.prefetch.CancelPrefetch()
	}
}

func (s *session) totals() counters {
	t := s.cum
	t.add(s.tr.totals())
	return t
}

// evalDue reports whether the model is evaluated after done rounds.
func (s *session) evalDue(done int) bool {
	return done == s.total || s.cfg.EvalEvery > 0 && done%s.cfg.EvalEvery == 0
}

// eval evaluates global on the held-out set and records the metric. A
// global model with a NaN or ±Inf coordinate is an error: scoring it
// would record a diverged run as 0.00 accuracy and carry on.
func (s *session) eval(done int, global nn.ParamVector, modelEquivalents float64) error {
	var acc, loss float64
	var err error
	if tensor.AllFinite(global) {
		acc, loss, err = evaluate(s.env.Model, global, s.env.Fed.Test, 64, s.cfg.Allowance())
	} else {
		// x − x is NaN exactly when x is NaN or ±Inf.
		i := slices.IndexFunc(global, func(x float64) bool { return x-x != 0 })
		err = fmt.Errorf("global model coordinate %d is %v", i, global[i])
	}
	if err != nil {
		return fmt.Errorf("fl: %s: %s eval after round %d: %w", s.engine, s.hist.Algorithm, done, err)
	}
	s.hist.Metrics = append(s.hist.Metrics, s.totals().metric(done, acc, loss, modelEquivalents))
	return nil
}

// checkpointDue reports whether a snapshot is written after done rounds,
// and whether the run then stops (StopAfterRound writes regardless of
// Every).
func (s *session) checkpointDue(done int) (write, stop bool) {
	ck := s.cfg.Checkpoint
	if !ck.Active() {
		return false, false
	}
	stop = ck.StopAfterRound > 0 && done == ck.StopAfterRound
	return stop || ck.Every > 0 && done%ck.Every == 0, stop
}

// finish folds the run totals into the history and returns it.
func (s *session) finish(comm CommProfile) *History {
	h, c := s.hist, s.totals()
	h.Comm = comm
	h.BytesDown, h.BytesUp, h.Stragglers = c.BytesDown, c.BytesUp, c.Stragglers
	h.Retries, h.FaultDrops, h.Duplicates, h.Stalls = c.Retries, c.FaultDrops, c.Duplicates, c.Stalls
	h.Crashes, h.Unavailable, h.Degraded = c.Crashes, c.Unavailable, c.Degraded
	return h
}

// save writes the snapshot after done rounds, write-ahead: the shared
// body, then the engine's tail.
func (s *session) save(done int, tail func(*nn.StateEncoder)) error {
	snap := snapshot{done: done, cum: s.totals(), metrics: s.hist.Metrics}
	for i := range snap.streams {
		snap.streams[i] = s.rng[streamSelect+stream(i)].State()
	}
	data, err := encodeCheckpoint(s.spec, &snap, tail)
	if err == nil {
		err = atomicWriteFile(s.cfg.Checkpoint.Path, data)
	}
	if err != nil {
		return fmt.Errorf("fl: %s: checkpoint after %d: %w", s.engine, done, err)
	}
	return nil
}

// resume loads the snapshot, restores the three live stream positions,
// hands the rest to the engine's tail parser, then installs the streams,
// the counters and the metric list, and returns the rounds completed.
// Adversary, fault and churn schedules are recomputed, not restored: they
// are pure functions of the seed.
func (s *session) resume(tail func(done int, d *nn.StateDecoder) error) (int, error) {
	path := s.cfg.Checkpoint.Path
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("fl: %s: resume: %w", s.engine, err)
	}
	snap, d, err := parseCheckpoint(data, s.spec)
	var streams [3]*tensor.RNG
	if err == nil {
		streams, err = s.restoreStreams(snap.streams)
	}
	if err == nil {
		err = tail(snap.done, d)
	}
	if err != nil {
		return 0, fmt.Errorf("fl: %s: resume %s: %w", s.engine, path, err)
	}
	s.cum, s.hist.Metrics = snap.cum, snap.metrics
	copy(s.rng[streamSelect:], streams[:])
	return snap.done, nil
}

// restoreStreams rebuilds the saved select, engineA and engineB streams.
// Each must carry the seed splitStreams gave that child — any other seed
// would silently change the resumed run — and a position RestoreRNG
// accepts.
func (s *session) restoreStreams(saved [3]tensor.RNGState) (out [3]*tensor.RNG, err error) {
	names := [3]string{"select", "engineA", "engineB"}
	for i, st := range saved {
		if want := s.rng[streamSelect+stream(i)].State().Seed; st.Seed != want {
			return out, fmt.Errorf("%s stream seed %d != run's %d", names[i], st.Seed, want)
		}
		if out[i], err = tensor.RestoreRNG(st); err != nil {
			return out, fmt.Errorf("%s stream: %w", names[i], err)
		}
	}
	return out, nil
}
