package fl

import (
	"fmt"
	"slices"
	"sort"

	"fedcross/internal/data"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// Attack names the Byzantine client behaviours the simulator can inject.
const (
	// AttackNone disables the adversary.
	AttackNone = "none"
	// AttackLabelFlip trains honestly on dishonest data: every label y of
	// a compromised client's shard becomes Classes−1−y. A data-poisoning
	// attack — the upload itself is a faithful model of the flipped shard.
	AttackLabelFlip = "labelflip"
	// AttackSignFlip uploads the negated parameter vector, the classic
	// model-poisoning attack that reverses the aggregate's direction.
	AttackSignFlip = "signflip"
	// AttackScale uploads the trained vector multiplied by Scale — a
	// scaled-gradient attack that lets a single client dominate a mean.
	AttackScale = "scale"
	// AttackCollude makes every compromised client upload the SAME
	// malicious vector (the first attacker's sign-flipped, Scale-amplified
	// update). Identical vectors sit at distance zero from each other,
	// which is exactly the cluster structure Krum-style defences are
	// weakest against.
	AttackCollude = "collude"
)

// AdversaryOptions configures Byzantine client injection for a run. The
// zero value means no adversary.
type AdversaryOptions struct {
	// Attack is the behaviour ("" or "none" disables; see the Attack*
	// constants).
	Attack string
	// Frac is the fraction of the TOTAL client population compromised,
	// in [0, 1). The compromised set is drawn once per run from a
	// dedicated seed split, so it is identical at every worker count and
	// stable under -jobs/-parallel changes.
	Frac float64
	// Scale is the magnitude of the scale/collude attacks (default 10).
	Scale float64
}

// Active reports whether the options describe a live adversary.
func (o AdversaryOptions) Active() bool {
	return o.Frac > 0 && o.Attack != "" && o.Attack != AttackNone
}

// Validate reports the first problem with the options.
func (o AdversaryOptions) Validate() error {
	switch o.Attack {
	case "", AttackNone, AttackLabelFlip, AttackSignFlip, AttackScale, AttackCollude:
	default:
		return fmt.Errorf("fl: unknown attack %q (want none, labelflip, signflip, scale or collude)", o.Attack)
	}
	if !(0 <= o.Frac && o.Frac < 1) {
		return fmt.Errorf("fl: attack fraction %v out of [0, 1)", o.Frac)
	}
	if !(o.Scale >= 0) {
		return fmt.Errorf("fl: attack scale %v, must be non-negative", o.Scale)
	}
	return nil
}

func (o AdversaryOptions) scale() float64 {
	if o.Scale == 0 {
		return 10
	}
	return o.Scale
}

// Adversary is a run's resolved Byzantine client set plus the attack
// machinery. It plugs into the engine at two seams:
//
//   - data: ShadowEnv substitutes label-flipped shards for compromised
//     clients (AttackLabelFlip), leaving honest shards and the test set
//     shared with the original environment;
//   - wire: the Transport consults CorruptUpload on every client→server
//     payload, so the model-poisoning attacks apply uniformly to all six
//     algorithms (and the async engine) without touching any of them.
//
// Concurrency contract: CorruptUpload and BeginRound are called only from
// the serial phases of a round, exactly like every other Transport
// method.
type Adversary struct {
	opts      AdversaryOptions
	attackers map[int]bool
	sorted    []int

	// colludeVec is the round's shared malicious payload; colludeSet
	// marks whether this round's first colluder has minted it yet.
	colludeVec nn.ParamVector
	colludeSet bool
	// bufs recycles per-upload corruption destinations across rounds;
	// used counts how many are live this round.
	bufs []nn.ParamVector
	used int
}

// NewAdversary draws the compromised client set: round(Frac·n) distinct
// clients, the first k ids of one math/rand Perm(n) — a pure function of
// the dedicated seed split, independent of scheduling. It is drawn once
// per run, off the round loop, so it keeps the Perm stream rather than
// selection stream v2: every attacked run, sync or async, compromises
// the clients it always did.
// Returns nil when the options are inactive.
func NewAdversary(opts AdversaryOptions, n int, rng *tensor.RNG) *Adversary {
	if !opts.Active() || n == 0 {
		return nil
	}
	k := min(int(opts.Frac*float64(n)+0.5), n)
	ids := slices.Clone(rng.Perm(n)[:k])
	sort.Ints(ids)
	a := &Adversary{opts: opts, attackers: make(map[int]bool, k), sorted: ids}
	for _, c := range ids {
		a.attackers[c] = true
	}
	return a
}

// IsAttacker reports whether client c is compromised. Nil-safe.
func (a *Adversary) IsAttacker(c int) bool { return a != nil && a.attackers[c] }

// Attackers returns the compromised client ids in ascending order.
func (a *Adversary) Attackers() []int {
	if a == nil {
		return nil
	}
	return append([]int(nil), a.sorted...)
}

// BeginRound resets the per-round corruption state (collusion payload,
// recycled buffers). Called by Transport.BeginRound in the sync engine
// and at every commit by the async engine. Nil-safe.
func (a *Adversary) BeginRound() {
	if a == nil {
		return
	}
	a.used = 0
	a.colludeSet = false
}

// CorruptUpload returns the vector client c actually transmits: vec
// itself for honest clients and data-poisoning attackers, a corrupted
// copy for the model-poisoning attacks. vec is never mutated; the
// returned buffer stays valid until the next BeginRound. Nil-safe.
func (a *Adversary) CorruptUpload(client int, vec nn.ParamVector) nn.ParamVector {
	if a == nil || !a.attackers[client] {
		return vec
	}
	switch a.opts.Attack {
	case AttackSignFlip:
		buf := a.scratch(len(vec))
		for i, x := range vec {
			buf[i] = -x
		}
		return buf
	case AttackScale:
		s := a.opts.scale()
		buf := a.scratch(len(vec))
		for i, x := range vec {
			buf[i] = s * x
		}
		return buf
	case AttackCollude:
		if !a.colludeSet {
			if len(a.colludeVec) != len(vec) {
				a.colludeVec = make(nn.ParamVector, len(vec))
			}
			s := a.opts.scale()
			for i, x := range vec {
				a.colludeVec[i] = -s * x
			}
			a.colludeSet = true
		}
		return a.colludeVec
	default: // labelflip poisons data, not payloads
		return vec
	}
}

// scratch leases the next recycled corruption buffer of length n.
func (a *Adversary) scratch(n int) nn.ParamVector {
	if a.used == len(a.bufs) {
		a.bufs = append(a.bufs, make(nn.ParamVector, n))
	}
	buf := a.bufs[a.used]
	if len(buf) != n {
		buf = make(nn.ParamVector, n)
		a.bufs[a.used] = buf
	}
	a.used++
	return buf
}

// ShadowEnv returns the environment the algorithms should actually train
// against: for AttackLabelFlip, a view whose compromised shards have
// every label flipped to Classes−1−y (feature storage is shared — the
// flip allocates only label slices); for a model-poisoning attack the
// original environment unchanged. Nil-safe.
//
// The view is a shadowSource over the federation's source (an eager
// federation's shards go behind data.Materialized first) that poisons
// each leased copy, so the shadow never materializes more than the
// in-flight working set.
func (a *Adversary) ShadowEnv(env *Env) *Env {
	if a == nil || a.opts.Attack != AttackLabelFlip {
		return env
	}
	inner := env.Fed.Source
	if inner == nil {
		inner = data.NewMaterialized(env.Fed.Clients)
	}
	fed := *env.Fed
	fed.Clients = nil
	fed.Source = &shadowSource{ClientSource: inner, attackers: a.attackers}
	return &Env{Fed: &fed, Model: env.Model}
}

// shadowSource is the label-flip adversary's view of a client source:
// poisoning is applied to a copy at lease time, leaving the underlying
// source's data untouched. Every other method is the inner source's, so
// each shadow lease holds exactly one inner lease and outstanding-lease
// accounting passes straight through.
type shadowSource struct {
	data.ClientSource
	attackers map[int]bool
}

// Shard leases the shard, flipping labels on a fresh view when the id is
// compromised. The flipped view shares feature storage with the inner
// lease, which stays pinned until Release.
func (s *shadowSource) Shard(id int) *data.Dataset {
	ds := s.ClientSource.Shard(id)
	if s.attackers[id] {
		return flipLabels(ds)
	}
	return ds
}

// Prefetch forwards a planned cohort to the inner source's warming pool.
// Poisoning happens on the leased view, so warming the real shard is
// exactly what a later shadow lease consumes. No-op when the inner
// source cannot prefetch.
func (s *shadowSource) Prefetch(ids []int) {
	if p, ok := s.ClientSource.(data.Prefetcher); ok {
		p.Prefetch(ids)
	}
}

// CancelPrefetch forwards the early-exit drain to the inner source.
func (s *shadowSource) CancelPrefetch() {
	if p, ok := s.ClientSource.(data.Prefetcher); ok {
		p.CancelPrefetch()
	}
}

// flipLabels returns a dataset sharing d's features with labels mapped to
// Classes−1−y.
func flipLabels(d *data.Dataset) *data.Dataset {
	y := make([]int, len(d.Y))
	for i, v := range d.Y {
		y[i] = d.Classes - 1 - v
	}
	return &data.Dataset{X: d.X, Y: y, Classes: d.Classes, TokenVocab: d.TokenVocab}
}
