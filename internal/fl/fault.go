package fl

import (
	"fmt"
	"math"
)

// FaultOptions configures deterministic fault injection. The zero value
// disables every fault, leaving histories bit-identical to the
// fault-free engine. Each fault is decided by a pure hash of
// (plan seed, round, id) — no sequential RNG draws — so decisions are
// identical at every Parallelism/-jobs fan-out and never perturb any
// other stream.
type FaultOptions struct {
	// CrashRate is the probability an activated client crashes before
	// training: it consumes its activation but contributes nothing.
	CrashRate float64
	// DropRate is the per-attempt probability an upload payload is lost
	// on the wire and must be retried (see TransportOptions.Retries).
	DropRate float64
	// TruncateRate is the per-attempt probability an upload arrives cut
	// short; the decode rejects it and the attempt counts as dropped.
	TruncateRate float64
	// CorruptRate is the per-attempt probability an upload's header is
	// bit-flipped in transit; the decode rejects it and the attempt
	// counts as dropped.
	CorruptRate float64
	// DuplicateRate is the probability an accepted upload is delivered
	// twice; the server dedups, but the duplicate's bytes and wire time
	// are charged.
	DuplicateRate float64
	// StraggleRate is the probability a client's link runs slow this
	// round: rates divided and latency multiplied by StraggleFactor.
	StraggleRate float64
	// StraggleFactor is the slowdown multiplier for straggle faults;
	// 0 defaults to 4.
	StraggleFactor float64
	// StallRate is the per-round probability of a server-side stall that
	// adds StallSec of latency to every link this round.
	StallRate float64
	// StallSec is the stall duration; 0 defaults to 1.
	StallSec float64
}

// Active reports whether any fault can fire.
func (o FaultOptions) Active() bool {
	return o.CrashRate > 0 || o.DropRate > 0 || o.TruncateRate > 0 ||
		o.CorruptRate > 0 || o.DuplicateRate > 0 || o.StraggleRate > 0 ||
		o.StallRate > 0
}

// Validate reports the first problem with the options.
func (o FaultOptions) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"CrashRate", o.CrashRate},
		{"DropRate", o.DropRate},
		{"TruncateRate", o.TruncateRate},
		{"CorruptRate", o.CorruptRate},
		{"DuplicateRate", o.DuplicateRate},
		{"StraggleRate", o.StraggleRate},
		{"StallRate", o.StallRate},
	}
	for _, r := range rates {
		if !(0 <= r.v && r.v <= 1) {
			return fmt.Errorf("fl: %s = %v, must be in [0,1]", r.name, r.v)
		}
	}
	if !(o.StraggleFactor >= 0) {
		return fmt.Errorf("fl: StraggleFactor = %v, must be non-negative", o.StraggleFactor)
	}
	if o.StraggleFactor > 0 && o.StraggleFactor < 1 {
		return fmt.Errorf("fl: StraggleFactor = %v, must be >= 1 (a slowdown)", o.StraggleFactor)
	}
	if !(o.StallSec >= 0) {
		return fmt.Errorf("fl: StallSec = %v, must be non-negative", o.StallSec)
	}
	return nil
}

// straggleFactor resolves the default.
func (o FaultOptions) straggleFactor() float64 {
	if o.StraggleFactor == 0 {
		return 4
	}
	return o.StraggleFactor
}

// stallSec resolves the default.
func (o FaultOptions) stallSec() float64 {
	if o.StallSec == 0 {
		return 1
	}
	return o.StallSec
}

// faultKind namespaces the hash so a client's crash, drop and straggle
// decisions in the same round are independent.
type faultKind uint64

const (
	kindCrash faultKind = iota + 1
	kindDrop
	kindTruncate
	kindCorrupt
	kindDuplicate
	kindStraggle
	kindStall
	kindAvail
	kindPhase
	kindLevel
)

// hash01 maps (seed, round, id, kind) to a uniform value in [0,1) with a
// splitmix64-style finalizer. It is the whole source of fault and
// availability randomness: a stateless function, so decisions commute
// with execution order and cost nothing to checkpoint.
func hash01(seed int64, round, id uint64, kind faultKind) float64 {
	x := uint64(seed) ^ round*0x9E3779B97F4A7C15 ^ id*0xBF58476D1CE4E5B9 ^ uint64(kind)*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// attemptID folds a retry attempt index into a client id so per-attempt
// faults (drop/truncate/corrupt) redraw on every retry.
func attemptID(client, attempt int) uint64 {
	return uint64(client) | uint64(attempt)<<40
}

// FaultPlan is a run's deterministic fault schedule. Its seed is drawn
// once from a dedicated RNG split appended after every existing stream
// (the advRNG pattern), so a plan with zero rates leaves histories
// bit-unchanged and an active plan never shifts selection, link or
// algorithm randomness.
type FaultPlan struct {
	opts FaultOptions
	seed int64
}

// NewFaultPlan builds a plan from options and the dedicated stream seed.
// A nil plan (or one with inactive options) injects nothing.
func NewFaultPlan(opts FaultOptions, seed int64) *FaultPlan {
	if !opts.Active() {
		return nil
	}
	return &FaultPlan{opts: opts, seed: seed}
}

// Active reports whether the plan can fire (nil-safe).
func (p *FaultPlan) Active() bool { return p != nil && p.opts.Active() }

// Crashes reports whether client id crashes before training in round r.
func (p *FaultPlan) Crashes(r, id int) bool {
	return p != nil && p.opts.CrashRate > 0 &&
		hash01(p.seed, uint64(r), uint64(id), kindCrash) < p.opts.CrashRate
}

// Drops reports whether client id's upload attempt is lost in round r.
func (p *FaultPlan) Drops(r, id, attempt int) bool {
	return p != nil && p.opts.DropRate > 0 &&
		hash01(p.seed, uint64(r), attemptID(id, attempt), kindDrop) < p.opts.DropRate
}

// Truncates reports whether client id's upload attempt arrives cut short.
func (p *FaultPlan) Truncates(r, id, attempt int) bool {
	return p != nil && p.opts.TruncateRate > 0 &&
		hash01(p.seed, uint64(r), attemptID(id, attempt), kindTruncate) < p.opts.TruncateRate
}

// Corrupts reports whether client id's upload attempt arrives bit-flipped.
func (p *FaultPlan) Corrupts(r, id, attempt int) bool {
	return p != nil && p.opts.CorruptRate > 0 &&
		hash01(p.seed, uint64(r), attemptID(id, attempt), kindCorrupt) < p.opts.CorruptRate
}

// Duplicates reports whether client id's accepted upload is delivered
// twice in round r.
func (p *FaultPlan) Duplicates(r, id int) bool {
	return p != nil && p.opts.DuplicateRate > 0 &&
		hash01(p.seed, uint64(r), uint64(id), kindDuplicate) < p.opts.DuplicateRate
}

// Straggles reports whether client id's link runs slow in round r.
func (p *FaultPlan) Straggles(r, id int) bool {
	return p != nil && p.opts.StraggleRate > 0 &&
		hash01(p.seed, uint64(r), uint64(id), kindStraggle) < p.opts.StraggleRate
}

// StraggleFactor is the slowdown multiplier for straggle faults.
func (p *FaultPlan) StraggleFactor() float64 {
	if p == nil {
		return 1
	}
	return p.opts.straggleFactor()
}

// Stalls reports whether the server stalls in round r.
func (p *FaultPlan) Stalls(r int) bool {
	return p != nil && p.opts.StallRate > 0 &&
		hash01(p.seed, uint64(r), math.MaxUint64, kindStall) < p.opts.StallRate
}

// StallSec is the latency a stalled round adds to every link.
func (p *FaultPlan) StallSec() float64 {
	if p == nil {
		return 0
	}
	return p.opts.stallSec()
}
