package fl

import (
	"fmt"
	"math"
)

// ChurnOptions models client availability and population drift. The zero
// value — and full availability with a static population — disables churn
// entirely, leaving histories bit-identical to the churn-free engine.
// Availability is a pure function of (plan seed, id, round): a diurnal
// sine with a per-client phase plus per-client jitter, so a fleet of
// 10^6 clients costs no per-client state at all.
type ChurnOptions struct {
	// Availability is the mean fraction of the fleet online at any time.
	// 0 or 1 disables availability filtering.
	Availability float64
	// PeriodRounds is the diurnal cycle length in rounds; 0 defaults
	// to 24.
	PeriodRounds int
	// Jitter spreads per-client availability around the mean: each
	// client's probability is scaled by a fixed (1 + u) with u uniform in
	// [-Jitter, Jitter]. 0 makes all clients identical.
	Jitter float64
	// StartFrac / EndFrac ramp the population: the live population at
	// round r is n·lerp(StartFrac, EndFrac, r/(rounds-1)), so the fleet
	// grows (Start < End) or shrinks (Start > End) mid-run. Ids at or
	// past the live population are unavailable. 0 means 1 (full
	// population).
	StartFrac, EndFrac float64
}

// Active reports whether churn can change any round's cohort.
func (o ChurnOptions) Active() bool {
	if o.Availability > 0 && o.Availability < 1 {
		return true
	}
	if o.StartFrac > 0 && o.StartFrac != 1 {
		return true
	}
	if o.EndFrac > 0 && o.EndFrac != 1 {
		return true
	}
	return false
}

// Validate reports the first problem with the options.
func (o ChurnOptions) Validate() error {
	switch {
	case !(0 <= o.Availability && o.Availability <= 1):
		return fmt.Errorf("fl: Availability = %v, must be in [0,1]", o.Availability)
	case o.PeriodRounds < 0:
		return fmt.Errorf("fl: PeriodRounds = %d, must be non-negative", o.PeriodRounds)
	case !(0 <= o.Jitter && o.Jitter <= 1):
		return fmt.Errorf("fl: churn Jitter = %v, must be in [0,1]", o.Jitter)
	case !(0 <= o.StartFrac && o.StartFrac <= 1):
		return fmt.Errorf("fl: StartFrac = %v, must be in [0,1]", o.StartFrac)
	case !(0 <= o.EndFrac && o.EndFrac <= 1):
		return fmt.Errorf("fl: EndFrac = %v, must be in [0,1]", o.EndFrac)
	}
	return nil
}

// ChurnPlan is a run's deterministic availability trace, seeded from a
// dedicated RNG split appended after every existing stream (and after the
// fault stream), so inactive churn leaves histories bit-unchanged.
type ChurnPlan struct {
	opts   ChurnOptions
	seed   int64
	n      int
	rounds int
}

// NewChurnPlan builds a plan over an n-client population and a run of
// the given length. Returns nil (inject nothing) when churn is inactive.
func NewChurnPlan(opts ChurnOptions, seed int64, n, rounds int) *ChurnPlan {
	if !opts.Active() || n <= 0 {
		return nil
	}
	return &ChurnPlan{opts: opts, seed: seed, n: n, rounds: rounds}
}

// Active reports whether the plan filters anyone (nil-safe).
func (p *ChurnPlan) Active() bool { return p != nil }

// period resolves the diurnal cycle length.
func (p *ChurnPlan) period() float64 {
	if p.opts.PeriodRounds <= 0 {
		return 24
	}
	return float64(p.opts.PeriodRounds)
}

// prob is client id's availability probability at round r: the mean
// scaled by a diurnal sine (per-client phase, so the fleet's time zones
// differ) and the client's fixed jitter level, clamped to [0,1].
func (p *ChurnPlan) prob(r, id int) float64 {
	avail := p.opts.Availability
	if avail <= 0 || avail >= 1 {
		avail = 1
	}
	phase := hash01(p.seed, 0, uint64(id), kindPhase)
	pr := avail * (1 + 0.8*math.Sin(2*math.Pi*(float64(r)/p.period()+phase)))
	if p.opts.Jitter > 0 {
		level := p.opts.Jitter * (2*hash01(p.seed, 0, uint64(id), kindLevel) - 1)
		pr *= 1 + level
	}
	return math.Max(0, math.Min(1, pr))
}

// Available reports whether client id is online at round r. Ids at or
// past the round's live population are offline by definition.
func (p *ChurnPlan) Available(r, id int) bool {
	if p == nil {
		return true
	}
	if id < 0 || id >= p.PopN(r) {
		return false
	}
	avail := p.opts.Availability
	if avail <= 0 || avail >= 1 {
		if p.opts.Jitter == 0 {
			return true // pure population ramp, no availability filtering
		}
	}
	return hash01(p.seed, uint64(r), uint64(id), kindAvail) < p.prob(r, id)
}

// PopN is the live population at round r under the Start→End ramp.
func (p *ChurnPlan) PopN(r int) int {
	if p == nil {
		return math.MaxInt
	}
	start, end := p.opts.StartFrac, p.opts.EndFrac
	if start == 0 {
		start = 1
	}
	if end == 0 {
		end = 1
	}
	frac := start
	if p.rounds > 1 {
		t := float64(r) / float64(p.rounds-1)
		if t > 1 {
			t = 1
		}
		frac = start + (end-start)*t
	}
	live := int(math.Round(frac * float64(p.n)))
	if live < 1 {
		live = 1
	}
	if live > p.n {
		live = p.n
	}
	return live
}
