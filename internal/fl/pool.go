package fl

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"fedcross/internal/data"
	"fedcross/internal/tensor"
)

// LocalJob is one client-slot training job prepared by an algorithm for
// the worker pool. Algorithms build the full job list serially — drawing
// any randomness they need (assignment shuffles, RNG splits, generated
// augmentation samples) in their usual order — and then hand the list to
// TrainAll, which may execute the jobs in any order on any number of
// goroutines.
//
// Determinism contract: every field a job reads during training must be
// owned by the job (RNG) or immutable for the duration of the round
// (Spec.Init, Spec.ProxRef, Spec.GradCorrection, the shard). Because the
// RNG is split before dispatch, a job's training trajectory depends only
// on the job itself, never on scheduling — so results are bit-identical
// at every parallelism level.
type LocalJob struct {
	// Client identifies the shard to lease from env.Fed; ignored when
	// Shard is set.
	Client int
	// Shard, when non-nil, overrides the client's shard (FedGen trains on
	// generator-augmented copies).
	Shard *data.Dataset
	// Spec is the training job; Init and the hook vectors are read-only.
	Spec LocalSpec
	// RNG is the job's exclusively-owned generator, pre-split by the
	// algorithm before dispatch.
	RNG *tensor.RNG
}

// TrainAll runs every job's local training across the allowance w (see
// Workers: at most w.Max goroutines, leased from w.Budget when it is
// shared with other concurrent simulations) and returns the results in
// job order. Workers claim jobs longest first (longestFirst), so the
// section does not end on one large shard started last. Any error aborts
// the round: in-flight jobs finish, unstarted jobs are skipped, and the
// error with the lowest job index among those that actually failed is
// returned.
func TrainAll(env *Env, jobs []LocalJob, w Workers) ([]LocalResult, error) {
	results := make([]LocalResult, len(jobs))
	err := parallelForErr(len(jobs), w, longestFirst(env, jobs), func(_, i int) (err error) {
		results[i], err = trainOne(env, jobs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// trainOne runs one job's local training. Unless the job brings its own
// shard, the client's shard is leased for exactly the duration of the
// local pass, so a virtualized federation keeps only in-flight shards
// pinned.
func trainOne(env *Env, job LocalJob) (LocalResult, error) {
	shard := job.Shard
	if shard == nil {
		shard = env.Fed.LeaseShard(job.Client)
		defer env.Fed.ReleaseShard(job.Client)
	}
	res, err := TrainLocal(env.Model, shard, job.Spec, job.RNG)
	if err != nil {
		return res, fmt.Errorf("client %d: %w", job.Client, err)
	}
	return res, nil
}

// longestFirst is the order TrainAll's workers claim jobs in: by
// descending shard size, ties by job index. A job's local pass is
// proportional to its shard, so claiming the largest first leaves the
// small ones to even out the workers' finishing times.
func longestFirst(env *Env, jobs []LocalJob) []int {
	size := make([]int, len(jobs))
	order := make([]int, len(jobs))
	for i, job := range jobs {
		order[i] = i
		if job.Shard != nil {
			size[i] = job.Shard.Len()
		} else {
			size[i] = env.Fed.Size(job.Client)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(size[b], size[a]) })
	return order
}

// ParallelForErr exposes the fail-fast loop to the scheduling layers (the
// experiment grid runner): fn(i) must write only state owned by iteration
// i. Semantics match TrainAll's error contract: first failure by index
// wins, unstarted iterations are skipped.
func ParallelForErr(n int, w Workers, fn func(i int) error) error {
	return parallelForErr(n, w, nil, func(_, i int) error { return fn(i) })
}

// ParallelForW exposes the loop to the algorithm layer (core's Gram-matrix
// similarity pass) under a Workers allowance, so budgeted callers
// (similarity passes running inside scheduled grid cells) fan out only as
// far as the shared budget allows. fn(i) must write only state owned by
// iteration i, so results are independent of scheduling.
func ParallelForW(n int, w Workers, fn func(i int)) {
	parallelForErr(n, w, nil, func(_, i int) error {
		fn(i)
		return nil
	})
}

// parallelForErr is the engine's one fan-out: up to w's allowance of
// workers (tokens beyond the always-granted inline worker are leased from
// w.Budget) claim iterations from a shared counter in the given order
// (nil means index order), so uneven costs balance. fn(wk, i) gets its
// worker's index in [0, workers) to pick per-worker scratch (replicas,
// index and encode buffers); worker identity must never influence
// results. It fails fast: after an error the counter is fast-forwarded
// past n, in-flight iterations finish, and the lowest-index error among
// those that failed is returned. A single worker runs index order, where
// the claim order would only decide which error is found first.
func parallelForErr(n int, w Workers, order []int, fn func(wk, i int) error) error {
	workers, leased := w.lease(n)
	defer w.Budget.ReleaseN(leased)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		minIdx = n
		minErr error
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for wk := 0; wk < workers; wk++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if order != nil {
					i = order[i]
				}
				if err := fn(wk, i); err != nil {
					mu.Lock()
					if i < minIdx {
						minIdx, minErr = i, err
					}
					mu.Unlock()
					failed.Store(true)
					next.Store(int64(n)) // fast-forward: stop claim churn
				}
			}
		}()
	}
	wg.Wait()
	return minErr
}

// effectiveWorkers resolves a worker budget against the iteration count:
// non-positive budgets mean every core, and no more workers than
// iterations (with a floor of one).
func effectiveWorkers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}
