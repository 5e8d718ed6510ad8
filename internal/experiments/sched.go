package experiments

import (
	"runtime"

	"fedcross/internal/data"
	"fedcross/internal/fl"
)

// Scheduler executes the cells of an experiment grid concurrently. Every
// table and figure runner expands its full grid — (dataset, model,
// heterogeneity, algorithm, seed) and the sweep-specific axes — into an
// ordered list of independent cells, then dispatches them here. Three
// pieces make that safe and fast:
//
//   - Cell concurrency: at most Profile.Jobs cells run at once (0 means
//     every core), each holding one base token of the shared budget.
//   - Worker-budget arbitration: the same fl.WorkerBudget is attached to
//     every cell's fl.Config, so the cells' inner training/evaluation
//     fan-outs lease their extra goroutines from one global pool —
//     however many cells are in flight, live workers never exceed the
//     budget (fl.WorkerBudget's invariant). An idle grid tail therefore
//     hands its cores to the cells still running.
//   - Environment memoization: cells lease their environments from a
//     shared EnvCache, so the grid builds each distinct (dataset, model,
//     het, seed, sizing) environment once instead of once per run — the
//     hoist that also makes strictly serial grids (Jobs=1) stop
//     rebuilding identical datasets per algorithm.
//
// Determinism: cells write only their own pre-indexed result slots, every
// run's randomness is derived from its own cfg.Seed exactly as before,
// and cached environment builds are bit-identical to direct BuildEnv
// calls — so grid results are bit-identical at every Jobs setting,
// the same invariant the round engine holds for Parallelism.
type Scheduler struct {
	jobs   int
	budget *fl.WorkerBudget
	cache  *EnvCache
}

// newScheduler builds the per-grid scheduler for a profile: Jobs cell
// slots and a worker budget of one token per core.
func newScheduler(p Profile) *Scheduler {
	jobs := p.Jobs
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	return &Scheduler{
		jobs:   jobs,
		budget: fl.NewWorkerBudget(0),
		cache:  NewEnvCache(),
	}
}

// Run executes cell(i) for every i in [0,n) with at most s.jobs cells in
// flight, each holding one base budget token for its whole lifetime.
// Cells must write only state owned by index i. The error contract
// matches fl.TrainAll: first failure by cell index wins, unstarted cells
// are skipped.
func (s *Scheduler) Run(n int, cell func(i int) error) error {
	return fl.ParallelForErr(n, fl.Limit(s.jobs), func(i int) error {
		s.budget.Acquire()
		defer s.budget.Release()
		return cell(i)
	})
}

// Config returns the profile's run configuration for a seed with the
// scheduler's shared worker budget attached.
func (s *Scheduler) Config(p Profile, seed int64) fl.Config {
	cfg := p.Config(seed)
	cfg.Budget = s.budget
	return cfg
}

// Env leases a memoized environment for the cell coordinates.
func (s *Scheduler) Env(p Profile, dataset, model string, het data.Heterogeneity, seed int64) (*fl.Env, error) {
	return s.cache.Lease(p, dataset, model, het, seed)
}

// firstSeed returns the profile's first seed (1 when none are set) — the
// seed every single-seed run uses.
func firstSeed(p Profile) int64 {
	if len(p.Seeds) > 0 {
		return p.Seeds[0]
	}
	return 1
}
