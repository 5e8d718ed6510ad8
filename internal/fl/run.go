package fl

import (
	"bytes"
	"fmt"

	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// Algorithm is the plug-in point for FL methods. The Runner owns client
// selection and evaluation; the algorithm owns what happens inside a
// round. Algorithms that additionally implement TransportUser receive the
// runner's simulated wire before Init and must route every model-sized
// exchange through it; the six built-in methods all do.
type Algorithm interface {
	// Name identifies the method in reports ("fedavg", "fedcross", ...).
	Name() string
	// Category is the Table-I taxonomy bucket.
	Category() string
	// Init prepares the algorithm's state for the given environment. It
	// is called exactly once before the first round.
	Init(env *Env, cfg Config, rng *tensor.RNG) error
	// Round runs one training round on the selected client indices. A
	// selected index of -1 marks a client that was activated but dropped
	// out (failure injection); algorithms must tolerate it.
	Round(r int, selected []int) error
	// Global returns the current deployment model. For FedCross this
	// triggers GlobalModelGen; for the baselines it is the live global
	// model.
	Global() nn.ParamVector
	// RoundComm is the per-round communication profile for K activated
	// clients.
	RoundComm(k int) CommProfile
}

// Selector is optionally implemented by algorithms that choose their own
// clients (CluSamp's clustered sampling). The Runner falls back to uniform
// random selection otherwise.
type Selector interface {
	SelectClients(r int, rng *tensor.RNG, n, k int) []int
}

// RoundMetric records the state after one evaluated round.
type RoundMetric struct {
	// Round is the 1-based round index.
	Round int
	// TestAcc and TestLoss are the global model's held-out metrics.
	TestAcc, TestLoss float64
	// CumModelEquivalents is cumulative communication in model-sized
	// units up to and including this round (the analytic Table-I view).
	CumModelEquivalents float64
	// CumBytesDown / CumBytesUp are the cumulative wire traffic measured
	// by the transport — byte-accurate encoded payload sizes, not
	// model-equivalents — up to and including this round.
	CumBytesDown, CumBytesUp int64
	// CumStragglers counts clients whose upload missed the round deadline
	// so far (0 unless Config.Transport sets a deadline).
	CumStragglers int
	// CumRetries / CumFaultDrops / CumDuplicates / CumStalls are the
	// cumulative fault-injection telemetry: retry attempts, clients
	// permanently lost to wire faults, duplicate deliveries, and stalled
	// rounds (0 unless Config.Faults is active).
	CumRetries, CumFaultDrops, CumDuplicates, CumStalls int
	// CumCrashes counts fault-injected pre-training client crashes.
	CumCrashes int
	// CumUnavailable counts selection slots lost to churn (offline or
	// departed clients) so far (0 unless Config.Churn is active).
	CumUnavailable int
	// CumDegraded counts rounds whose accepted uploads fell below the
	// Config.MinUploads quorum, so the server kept its current model.
	CumDegraded int
}

// History is a full run record.
type History struct {
	// Algorithm is the method name.
	Algorithm string
	// Metrics holds one entry per evaluated round.
	Metrics []RoundMetric
	// Comm is the whole-run communication total in analytic units.
	Comm CommProfile
	// BytesDown / BytesUp are the whole-run wire traffic measured by the
	// transport (encoded payload bytes).
	BytesDown, BytesUp int64
	// Stragglers is the whole-run count of deadline-missed uploads.
	Stragglers int
	// Retries / FaultDrops / Duplicates / Stalls are the whole-run fault
	// telemetry (see the matching RoundMetric fields).
	Retries, FaultDrops, Duplicates, Stalls int
	// Crashes is the whole-run count of fault-injected client crashes.
	Crashes int
	// Unavailable is the whole-run count of selection slots lost to
	// churn.
	Unavailable int
	// Degraded is the whole-run count of below-quorum rounds.
	Degraded int
}

// TotalBytes returns the run's whole wire traffic in both directions.
func (h *History) TotalBytes() int64 { return h.BytesDown + h.BytesUp }

// Final returns the last evaluated metric.
func (h *History) Final() RoundMetric {
	if len(h.Metrics) == 0 {
		return RoundMetric{}
	}
	return h.Metrics[len(h.Metrics)-1]
}

// BestAcc returns the best test accuracy seen at any evaluation point.
func (h *History) BestAcc() float64 {
	best := 0.0
	for _, m := range h.Metrics {
		if m.TestAcc > best {
			best = m.TestAcc
		}
	}
	return best
}

// RoundsToAcc returns the first evaluated round reaching acc, or -1.
func (h *History) RoundsToAcc(acc float64) int {
	for _, m := range h.Metrics {
		if m.TestAcc >= acc {
			return m.Round
		}
	}
	return -1
}

// Run executes a full FL simulation: Init, Rounds× (select → algorithm
// round → optional eval), returning the metric history.
func Run(algo Algorithm, env *Env, cfg Config) (*History, error) {
	s, err := newSession("Run", algo.Name(), env, cfg, cfg.Rounds)
	if err != nil {
		return nil, err
	}
	defer s.close()
	tr, err := NewTransport(cfg.Transport)
	if err != nil {
		return nil, fmt.Errorf("fl: Run: %w", err)
	}
	// Every attack but label-flip corrupts uploads at the transport seam.
	tr.SetAdversary(s.adv)
	tr.SetFaultPlan(s.faults)
	s.tr = tr
	if ws, ok := cfg.Reducer.(WorkersSetter); ok {
		ws.SetWorkers(cfg.Allowance())
	}
	if tu, ok := algo.(TransportUser); ok {
		tu.SetTransport(tr)
	}
	if err := algo.Init(s.env, cfg, s.rng[streamInit]); err != nil {
		return nil, fmt.Errorf("fl: Run: init %s: %w", algo.Name(), err)
	}
	if _, ok := algo.(RoundCheckpointer); !ok && cfg.Checkpoint.Active() {
		return nil, fmt.Errorf("fl: Run: algorithm %s does not support round checkpoints", algo.Name())
	}
	s.spec = runCkptSpec(cfg, algo.Name(), s.n)
	churn := NewChurnPlan(cfg.Churn, s.rng[streamChurn].Int63(), s.n, cfg.Rounds)
	var acct Accountant
	genFrac := 0.25 // generators are a quarter model, cf. comm.go
	startRound := 0
	var tail *runTail
	if cfg.Checkpoint.Resume {
		// The algorithm re-ran Init (consuming its stream identically to
		// the original run); LoadState now replaces its state wholesale.
		startRound, err = s.resume(func(done int, d *nn.StateDecoder) (err error) {
			if tail, err = parseRunTail(d, done, cfg.Rounds, s.n, s.k); err != nil {
				return err
			}
			if err := algo.(RoundCheckpointer).LoadState(bytes.NewReader(tail.blob)); err != nil {
				return fmt.Errorf("%s state: %w", algo.Name(), err)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	planner := newCohortPlanner(algo, s.rng[streamSelect], s.n, s.k, churn)
	if tail != nil {
		planner.next, planner.drawn, acct = tail.next, tail.drawn, tail.acct
	}
	netRNG := s.rng[streamEngineB]
	_, selects := algo.(Selector)
	lookahead := s.prefetch != nil && !selects

	for r := startRound; r < cfg.Rounds; r++ {
		selected := planner.Take(r)
		if churn.Active() {
			// Slots the planner padded or marked -1 are churn losses;
			// crash marking below adds its own.
			for _, ci := range selected {
				if ci < 0 {
					s.cum.Unavailable++
				}
			}
		}
		if s.faults.Active() && cfg.Faults.CrashRate > 0 {
			// A crash consumes the activation but contributes nothing:
			// its slot is marked -1, which every algorithm already skips.
			for i, ci := range selected {
				if ci >= 0 && s.faults.Crashes(r, ci) {
					selected[i] = -1
					s.cum.Crashes++
				}
			}
		}
		// Lookahead: the planner draws the cohorts of rounds r+1 …
		// r+PrefetchRounds and hands them to the prefetch pool, which warms
		// their shards while round r trains. The draws come from the same
		// selection-stream positions they would occupy anyway — selection
		// is a dedicated stream with no other reader, so early draws are
		// not visible. Prefetch enqueues pre-crash plans (a crashed
		// client's warm shard is merely unused) and copies the ids before
		// returning; Ahead's slices are later rounds' than the one this
		// round marks in place.
		for a := 1; lookahead && a <= cfg.PrefetchRounds && r+a < cfg.Rounds; a++ {
			s.prefetch.Prefetch(planner.Ahead(r + a))
		}
		tr.BeginRound(r, selected, netRNG.Split())
		if err := algo.Round(r, selected); err != nil {
			return nil, fmt.Errorf("fl: Run: %s round %d: %w", algo.Name(), r, err)
		}
		if cfg.BelowQuorum(tr.RoundUploaders()) {
			// The algorithms' reduce paths kept the current model; the
			// engine records that the round degraded rather than
			// aggregated.
			s.cum.Degraded++
		}
		tr.EndRound()
		acct.Record(algo.RoundComm(s.k))

		done := r + 1
		if s.evalDue(done) {
			if err := s.eval(done, algo.Global(), acct.Total().TotalModelEquivalents(genFrac)); err != nil {
				return nil, err
			}
		}
		if write, stop := s.checkpointDue(done); write {
			err := s.save(done, func(e *nn.StateEncoder) { encodeRunTail(e, done, planner, acct, algo) })
			if err != nil {
				return nil, err
			}
			if stop {
				return s.finish(acct.Total()), ErrStopped
			}
		}
	}
	return s.finish(acct.Total()), nil
}

// selectClients asks the algorithm first and falls back to uniform random
// selection without replacement: tensor.RNG.SampleV2, K draws for K of N
// ids, so a round over 10^6 clients allocates and draws for a K-sized
// cohort, not an N-sized permutation. An active churn plan biases
// selection to available clients: the same shuffle runs on until it has
// yielded k available ids, padding with -1 once all n are drawn; a
// Selector's self-chosen cohort has its offline members marked -1 after
// the fact.
func selectClients(algo Algorithm, r int, rng *tensor.RNG, n, k int, churn *ChurnPlan) []int {
	if s, ok := algo.(Selector); ok {
		sel := s.SelectClients(r, rng, n, k)
		if len(sel) == k {
			if churn.Active() {
				for i, id := range sel {
					if id >= 0 && !churn.Available(r, id) {
						sel[i] = -1
					}
				}
			}
			return sel
		}
	}
	if !churn.Active() {
		return rng.SampleV2(n, k, nil)
	}
	return rng.SampleV2(n, k, func(id int) bool { return churn.Available(r, id) })
}
