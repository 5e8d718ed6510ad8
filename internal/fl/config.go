// Package fl is the federated-learning simulation substrate: local SGD
// training with algorithm hooks (proximal terms, gradient corrections),
// client selection, round orchestration, evaluation, and communication
// accounting. Algorithms (FedAvg, FedProx, SCAFFOLD, FedGen, CluSamp in
// internal/baselines; FedCross in internal/core) plug into the Runner
// through the Algorithm interface.
package fl

import (
	"fmt"
	"runtime"

	"fedcross/internal/data"
	"fedcross/internal/models"
)

// Config holds the round-level hyper-parameters shared by every
// algorithm. The defaults mirror the paper's Section IV-A settings scaled
// to CPU: B=50, E=5, SGD lr=0.01 momentum=0.5, 10% participation.
type Config struct {
	// Rounds is the number of FL communication rounds.
	Rounds int
	// ClientsPerRound is K, the number of clients activated per round.
	ClientsPerRound int
	// LocalEpochs is E, the local epochs per activation.
	LocalEpochs int
	// BatchSize is the local mini-batch size.
	BatchSize int
	// LR and Momentum configure the clients' SGD optimizer.
	LR, Momentum float64
	// EvalEvery evaluates the global model every n rounds (plus always at
	// the final round); 0 evaluates only at the end.
	EvalEvery int
	// Seed drives all simulation randomness (selection, shuffles, local
	// batching).
	Seed int64
	// Parallelism caps the worker goroutines a simulation run uses for
	// client-local training and its periodic evaluation. 0 (the default)
	// uses runtime.NumCPU(); 1 reproduces strictly serial execution.
	// Results are bit-identical at every setting: per-client RNG streams
	// are pre-split before dispatch, so scheduling never influences
	// randomness. (The standalone Evaluate/EvaluatePerClient helpers take
	// no Config; they accept the same worker budget as an explicit
	// argument.)
	Parallelism int
	// Transport selects the simulated wire (codec, link model, round
	// deadline). The zero value is the pass-through reference wire:
	// identity codec, ideal network, no deadline — bit-identical histories
	// to the accounting-only engine.
	Transport TransportOptions
	// Reducer is the server-side aggregation rule every algorithm's
	// upload fold routes through (see ReduceUploads). nil is the
	// weighted mean (nil ≡ "mean", relations row reducer); the robust
	// rules (trimmed mean, median, core's Krum family) swap in here.
	Reducer Reducer
	// Adversary injects Byzantine clients (see AdversaryOptions). The
	// zero value runs the benign setting with histories untouched.
	Adversary AdversaryOptions
	// Faults injects deterministic failures — client crashes, payload
	// drop/truncation/corruption/duplication, straggle and stall faults
	// (see FaultOptions). The zero value injects nothing and leaves
	// histories bit-unchanged.
	Faults FaultOptions
	// MinUploads is the aggregation quorum: a round whose accepted
	// uploads fall below it degrades (the server keeps its current
	// model) instead of folding a thin cohort. 0 disables the quorum —
	// any non-empty fold proceeds, the pre-quorum behaviour.
	MinUploads int
	// Churn models client availability and population drift (see
	// ChurnOptions). The zero value runs the static, always-on fleet
	// with histories untouched.
	Churn ChurnOptions
	// Checkpoint configures round-granular write-ahead snapshots and
	// resume (see CheckpointOptions). The zero value never touches disk.
	Checkpoint CheckpointOptions
	// PrefetchRounds is how many future rounds of planned cohorts the
	// engines hand to the data layer's background prefetch pool while the
	// current round trains (see data.Prefetcher): with a lazy client
	// source, round r+1's shards are synthesized concurrently with round
	// r's training, hiding the serial prepare phase of huge-K rounds. 0
	// (the default) disables lookahead. Prefetch only warms the shard
	// cache — it never draws RNG and is disabled automatically for
	// Selector algorithms, whose next cohort depends on round state — so
	// histories are bit-identical at every setting.
	PrefetchRounds int
	// Budget, when non-nil, is the shared worker-token pool this run's
	// training and evaluation fan-outs lease goroutines from — set by the
	// experiment scheduler so concurrently running grid cells never
	// oversubscribe the machine. nil (the default) leaves the run
	// unbudgeted: Parallelism alone caps the fan-out, exactly the
	// standalone behaviour. The budget never affects results, only how
	// many goroutines compute them.
	Budget *WorkerBudget
}

// DefaultConfig returns the paper-mirroring configuration at test scale.
func DefaultConfig() Config {
	return Config{
		Rounds:          20,
		ClientsPerRound: 10,
		LocalEpochs:     5,
		BatchSize:       50,
		LR:              0.01,
		Momentum:        0.5,
		EvalEvery:       5,
		Seed:            1,
	}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Rounds <= 0:
		return fmt.Errorf("fl: Rounds = %d, must be positive", c.Rounds)
	case c.ClientsPerRound <= 0:
		return fmt.Errorf("fl: ClientsPerRound = %d, must be positive", c.ClientsPerRound)
	case c.LocalEpochs <= 0:
		return fmt.Errorf("fl: LocalEpochs = %d, must be positive", c.LocalEpochs)
	case c.BatchSize <= 0:
		return fmt.Errorf("fl: BatchSize = %d, must be positive", c.BatchSize)
	case !(c.LR > 0):
		return fmt.Errorf("fl: LR = %v, must be positive", c.LR)
	case !(0 <= c.Momentum && c.Momentum < 1):
		return fmt.Errorf("fl: Momentum = %v, must be in [0,1)", c.Momentum)
	case c.Parallelism < 0:
		return fmt.Errorf("fl: Parallelism = %d, must be non-negative", c.Parallelism)
	case c.PrefetchRounds < 0:
		return fmt.Errorf("fl: PrefetchRounds = %d, must be non-negative", c.PrefetchRounds)
	case c.MinUploads < 0 || c.MinUploads > c.ClientsPerRound:
		// Above K no round could ever meet the quorum.
		return fmt.Errorf("fl: MinUploads = %d, must be in [0, ClientsPerRound = %d]", c.MinUploads, c.ClientsPerRound)
	}
	if err := c.Adversary.Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if err := c.Churn.Validate(); err != nil {
		return err
	}
	if err := c.Checkpoint.Validate(); err != nil {
		return err
	}
	return c.Transport.Validate()
}

// Workers resolves Parallelism to an effective worker count: the
// configured value, or runtime.NumCPU() when unset.
func (c Config) Workers() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.NumCPU()
}

// Allowance returns the worker allowance a round's parallel sections draw
// from: Parallelism as the cap, leased from the shared Budget when the
// run executes under the experiment scheduler.
func (c Config) Allowance() Workers {
	return Workers{Max: c.Parallelism, Budget: c.Budget}
}

// BelowQuorum reports whether n accepted uploads miss the MinUploads
// quorum, so the round (or async commit) degrades: the server keeps its
// current model instead of folding a thin cohort.
func (c Config) BelowQuorum(n int) bool { return c.MinUploads > 0 && n < c.MinUploads }

// LocalSpec returns the local-training spec every activation shares —
// epochs, batch size, learning rate, momentum — for callers to extend
// with the job's Init, Out and hooks.
func (c Config) LocalSpec() LocalSpec {
	return LocalSpec{Epochs: c.LocalEpochs, BatchSize: c.BatchSize, LR: c.LR, Momentum: c.Momentum}
}

// Env bundles the federated dataset with the model architecture under
// test.
type Env struct {
	// Fed is the client shards plus shared test set.
	Fed *data.Federated
	// Model constructs the architecture every participant trains.
	Model models.Factory
}

// NumClients returns the total client population N.
func (e *Env) NumClients() int { return e.Fed.NumClients() }
