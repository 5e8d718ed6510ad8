package fl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// gauge tracks the peak of a concurrently incremented counter.
type gauge struct {
	cur, peak atomic.Int64
}

func (g *gauge) enter() {
	v := g.cur.Add(1)
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

func (g *gauge) exit() { g.cur.Add(-1) }

func TestWorkerBudgetTokens(t *testing.T) {
	b := NewWorkerBudget(3)
	if b.Cap() != 3 {
		t.Fatalf("Cap = %d, want 3", b.Cap())
	}
	if got := b.TryAcquire(5); got != 3 {
		t.Fatalf("TryAcquire(5) on a full budget = %d, want 3", got)
	}
	if got := b.TryAcquire(1); got != 0 {
		t.Fatalf("TryAcquire on a drained budget = %d, want 0", got)
	}
	b.ReleaseN(2)
	if got := b.TryAcquire(5); got != 2 {
		t.Fatalf("TryAcquire after ReleaseN(2) = %d, want 2", got)
	}
	b.ReleaseN(3)

	b.Acquire() // blocking path with a token free
	b.Release()

	var nilBudget *WorkerBudget
	nilBudget.Acquire() // all nil methods are no-ops / full grants
	nilBudget.Release()
	if got := nilBudget.TryAcquire(7); got != 7 {
		t.Fatalf("nil TryAcquire = %d, want full grant", got)
	}
	nilBudget.ReleaseN(7)
	if nilBudget.Cap() != 0 {
		t.Fatalf("nil Cap = %d", nilBudget.Cap())
	}
	if NewWorkerBudget(0).Cap() < 1 {
		t.Fatal("default budget must have at least one token")
	}
}

// TestWorkerBudgetArbitration pins the scheduler/round arbitration
// invariant: with C cells each holding a base token and fanning their
// inner loops out through the same budget, the number of live workers
// never exceeds the budget's capacity — however greedy the inner
// allowances are.
func TestWorkerBudgetArbitration(t *testing.T) {
	const budgetCap = 3
	const cells = 6
	b := NewWorkerBudget(budgetCap)
	var g gauge
	var wg sync.WaitGroup
	wg.Add(cells)
	for c := 0; c < cells; c++ {
		go func() {
			defer wg.Done()
			b.Acquire() // the cell's base token
			defer b.Release()
			// Inner fan-out asks for far more workers than the budget
			// holds; whatever is granted plus the inline worker must stay
			// within the cap.
			ParallelForW(32, Workers{Max: 16, Budget: b}, func(i int) {
				g.enter()
				time.Sleep(200 * time.Microsecond)
				g.exit()
			})
		}()
	}
	wg.Wait()
	if peak := g.peak.Load(); peak > budgetCap {
		t.Fatalf("peak live workers %d exceeds budget %d", peak, budgetCap)
	}
	if got := b.TryAcquire(budgetCap + 1); got != budgetCap {
		t.Fatalf("budget leaked tokens: %d free of %d after all sections ended", got, budgetCap)
	}
	b.ReleaseN(budgetCap)
}

// TestParallelForErrFastForward pins the failure path: the lowest-index
// error among the iterations that ran wins, and iterations that were not
// yet claimed when the failure hit are skipped rather than spun through a
// claim-and-skip pass.
func TestParallelForErrFastForward(t *testing.T) {
	const n, workers = 100000, 4
	var ran atomic.Int64
	boom := errors.New("boom")
	// Each worker's first claim is one of iterations 0..workers-1, and the
	// barrier holds all of them in flight before any fails. Every worker
	// therefore records its own failure before it could claim again, so
	// exactly `workers` iterations run on any schedule.
	var inFlight sync.WaitGroup
	inFlight.Add(workers)
	err := parallelForErr(n, Limit(workers), nil, func(_, i int) error {
		ran.Add(1)
		if i >= workers {
			return nil
		}
		inFlight.Done()
		inFlight.Wait()
		return fmt.Errorf("iteration %d: %w", i, boom)
	})
	if !errors.Is(err, boom) || err.Error() != "iteration 0: boom" {
		t.Fatalf("err = %v, want iteration 0's wrapped boom", err)
	}
	if got := ran.Load(); got != workers {
		t.Fatalf("ran %d of %d iterations, want only the %d in flight at the failure", got, n, workers)
	}

	// Lowest index wins even when a later iteration fails first. A barrier
	// makes every iteration in-flight before any failure, so all of them
	// run to completion and the minimum failing index is deterministic.
	var entered sync.WaitGroup
	entered.Add(8)
	err = parallelForErr(8, Limit(8), nil, func(_, i int) error {
		entered.Done()
		entered.Wait()
		if i >= 6 {
			return fmt.Errorf("fail-%d", i)
		}
		time.Sleep(2 * time.Millisecond)
		if i == 2 {
			return fmt.Errorf("fail-%d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail-2" {
		t.Fatalf("err = %v, want fail-2 (lowest failing index that ran)", err)
	}

	// Serial path stops at the first error without touching the rest.
	var serialRan int
	err = parallelForErr(10, Limit(1), nil, func(_, i int) error {
		serialRan++
		if i == 4 {
			return errors.New("serial stop")
		}
		return nil
	})
	if err == nil || serialRan != 5 {
		t.Fatalf("serial: ran %d (err %v), want 5 with error", serialRan, err)
	}
}

// TestTrainAllBudgeted pins that a budgeted TrainAll still produces
// results bit-identical to the unbudgeted serial run — tokens change the
// fan-out, never the outcome.
func TestTrainAllBudgeted(t *testing.T) {
	env := testEnv(31, 4)
	init := nn.FlattenParams(env.Model.New(tensor.NewRNG(1)).Params())
	serial, err := TrainAll(env, trainJobs(env, init, 23), Limit(1))
	if err != nil {
		t.Fatal(err)
	}
	b := NewWorkerBudget(2)
	b.Acquire() // the caller's base token, as under the scheduler
	defer b.Release()
	budgeted, err := TrainAll(env, trainJobs(env, init, 23), Workers{Max: 8, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(budgeted) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(budgeted))
	}
	for i := range serial {
		for j := range serial[i].Params {
			if serial[i].Params[j] != budgeted[i].Params[j] {
				t.Fatalf("job %d: budgeted params differ from serial at %d", i, j)
			}
		}
	}
}
