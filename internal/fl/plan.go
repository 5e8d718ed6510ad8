package fl

import (
	"fedcross/internal/data"
	"fedcross/internal/tensor"
)

// CohortPlan replays the engine's selection stream and returns the
// cohort fl.Run will select for round r (0-based, before crash marking)
// under a benign run whose algorithm does not implement Selector: it
// takes the selection stream from the same table as Run, then draws one
// cohort per round through round r (tensor.RNG.SampleV2, k draws a
// round).
// Because selection is a pure function of (seed, n, k, r), round r+1's
// cohort is known while round r still trains — the determinism fact the
// prefetch pipeline is built on. k is clamped to n exactly as in Run.
// Selector algorithms (clustered sampling) choose clients from
// round-local state, so their cohorts exist only inside the run; the
// engine's planner handles them by drawing at round boundaries and
// disabling lookahead. CohortPlan replays the static, always-on fleet:
// under an active ChurnPlan the engine's shuffle runs past offline ids,
// making as many draws as that takes, so it selects other cohorts.
func CohortPlan(r int, seed int64, n, k int) []int {
	if r < 0 || n <= 0 || k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	sel := splitStreams(seed, streamSelect)[streamSelect]
	var cohort []int
	for rr := 0; rr <= r; rr++ {
		cohort = sel.SampleV2(n, k, nil)
	}
	return cohort
}

// cohortPlanner owns a run's selection stream. It factors client
// selection out of the round loop so round r+1's cohort can be planned
// (and its shards prefetched) while round r trains, without moving a
// single RNG draw out of round order: plans are drawn strictly
// sequentially from the same selRNG, so whether a round's cohort is
// drawn eagerly (lookahead) or at its round top, the stream — and every
// history bit — is identical to the inline selection it replaced. The
// planner is not locked: only the round loop's goroutine uses it.
type cohortPlanner struct {
	algo  Algorithm
	rng   *tensor.RNG
	n, k  int
	churn *ChurnPlan // nil for the static, always-on fleet

	next  int           // first round whose cohort has not been drawn
	drawn map[int][]int // planned cohorts not yet handed to the loop
}

func newCohortPlanner(algo Algorithm, rng *tensor.RNG, n, k int, churn *ChurnPlan) *cohortPlanner {
	return &cohortPlanner{algo: algo, rng: rng, n: n, k: k, churn: churn, drawn: map[int][]int{}}
}

// draw advances the selection stream through round r, caching cohorts
// drawn ahead of their round. Availability is a pure function of
// (seed, id, round), so churn-biased cohorts are as plannable ahead as
// uniform ones.
func (p *cohortPlanner) draw(r int) []int {
	for p.next <= r {
		p.drawn[p.next] = selectClients(p.algo, p.next, p.rng, p.n, p.k, p.churn)
		p.next++
	}
	return p.drawn[r]
}

// Take returns round r's cohort and releases the planner's reference, so
// the round loop owns the slice (crash marking writes slots in place, exactly
// as with inline selection). Rounds are taken in ascending order.
func (p *cohortPlanner) Take(r int) []int {
	ids := p.draw(r)
	delete(p.drawn, r)
	return ids
}

// Ahead returns round r's planned cohort without consuming it, or nil
// when the algorithm selects its own clients: a Selector consults
// algorithm state as of round r, which does not exist before round r−1
// completes, so planning ahead would change both the chosen cohort and
// the stream's draw count (fl.Run does not plan ahead for a Selector at
// all). Callers must copy-or-consume the ids before round r starts —
// Take(r) returns the same backing slice, which the round loop then
// mutates.
func (p *cohortPlanner) Ahead(r int) []int {
	if _, ok := p.algo.(Selector); ok {
		return nil
	}
	return p.draw(r)
}

// sourcePrefetcher resolves the environment's shard-warming seam: the
// federation's source when the run asked for lookahead (PrefetchRounds >
// 0) and the source supports it. Prefetch only warms the cache — it
// draws no RNG and flows through the same lease path as training — so a
// nil return (eager layout, unsupported source, prefetch disabled)
// changes wall-clock only, never results.
func sourcePrefetcher(env *Env, cfg Config) data.Prefetcher {
	if cfg.PrefetchRounds <= 0 || env.Fed.Source == nil {
		return nil
	}
	p, ok := env.Fed.Source.(data.Prefetcher)
	if !ok {
		return nil
	}
	return p
}
