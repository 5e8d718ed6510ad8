package fl

import (
	"fmt"
	"log"
	"math"

	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// PrivacyOptions configures the local-DP upload mechanism of WithPrivacy.
type PrivacyOptions struct {
	// ClipNorm bounds each upload's update norm ‖y − x‖ before noising
	// (the sensitivity bound); 0 disables clipping.
	ClipNorm float64
	// NoiseStd is the Gaussian noise added per parameter after clipping.
	NoiseStd float64
	// Seed drives the noise stream.
	Seed int64
}

// Validate reports the first problem with the options.
func (o PrivacyOptions) Validate() error {
	switch {
	case !(o.ClipNorm >= 0):
		return fmt.Errorf("fl: privacy ClipNorm %v, must be non-negative", o.ClipNorm)
	case !(o.NoiseStd >= 0) || math.IsInf(o.NoiseStd, 1):
		return fmt.Errorf("fl: privacy NoiseStd %v, must be non-negative and finite", o.NoiseStd)
	}
	return nil
}

// privacyWrapper decorates an Algorithm with Gaussian-mechanism upload
// perturbation. The paper's discussion (Section IV-F1) argues FedCross
// composes with the privacy techniques used for FedAvg because its
// client-side protocol is identical; this wrapper realises the standard
// clip-then-noise local mechanism generically, for any wrapped method:
// after each round it perturbs the algorithm's visible global state's
// *inputs* indirectly by noising at the dispatch boundary.
//
// Implementation note: the wrapper cannot intercept uploads inside the
// wrapped algorithm without changing its interface, so instead it noises
// the environment-facing artifact that leaves the device boundary — the
// deployment model returned by Global(). Training state is untouched;
// the released model satisfies the Gaussian mechanism w.r.t. the clipped
// release.
type privacyWrapper struct {
	Algorithm
	opts PrivacyOptions
	rng  *tensor.RNG
	ref  nn.ParamVector // raw model at the last release, the clipping anchor

	// released memoizes the round's release: the Gaussian mechanism's
	// output is a function of the round's training state, so within one
	// round every Global() call must return the SAME released model.
	// Drawing fresh noise per call would publish several distinct noisy
	// views of one model — silently double-spending the privacy budget
	// whenever a round both evaluates and deploys. Round() invalidates it.
	released nn.ParamVector
}

// WithPrivacy wraps algo so that every released global model is clipped
// against the previous release and perturbed with Gaussian noise.
func WithPrivacy(algo Algorithm, opts PrivacyOptions) (Algorithm, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &privacyWrapper{Algorithm: algo, opts: opts, rng: tensor.NewRNG(opts.Seed)}, nil
}

// Name implements Algorithm.
func (p *privacyWrapper) Name() string { return p.Algorithm.Name() + "+dp" }

// SetTransport implements TransportUser by forwarding the runner's wire
// to the wrapped algorithm (interface embedding would otherwise hide the
// inner method from the runner's type assertion).
func (p *privacyWrapper) SetTransport(t *Transport) {
	if tu, ok := p.Algorithm.(TransportUser); ok {
		tu.SetTransport(t)
	}
}

// Init implements Algorithm: besides initialising the wrapped method, it
// discards the previous run's memoized release and clipping anchor —
// stale state from an earlier experiment must not leak into (or clip) the
// new run's first release.
func (p *privacyWrapper) Init(env *Env, cfg Config, rng *tensor.RNG) error {
	p.released = nil
	p.ref = nil
	return p.Algorithm.Init(env, cfg, rng)
}

// Round implements Algorithm: it forwards to the wrapped method and
// invalidates the memoized release, because the round changed the state
// the next release is computed from.
func (p *privacyWrapper) Round(r int, selected []int) error {
	p.released = nil
	return p.Algorithm.Round(r, selected)
}

// Global implements Algorithm: clip the release delta against the previous
// round's release anchor and add Gaussian noise. The release is memoized
// per training round — repeated calls (evaluate, then deploy) return
// copies of the same perturbed model, and the clipping anchor advances
// exactly once per round.
func (p *privacyWrapper) Global() nn.ParamVector {
	if p.released != nil {
		return p.released.Clone()
	}
	raw := p.Algorithm.Global()
	out := raw.Clone()
	if p.ref != nil && p.opts.ClipNorm > 0 {
		if len(p.ref) != len(out) {
			// A length change means the wrapped algorithm swapped model
			// architectures mid-run; clipping against the stale anchor is
			// impossible, which weakens the release's sensitivity bound.
			// Surface it rather than skipping silently.
			log.Printf("fl: privacy: clipping skipped: anchor has %d params, release has %d (model changed?)", len(p.ref), len(out))
		} else {
			delta := out.Sub(p.ref)
			if n := delta.Norm(); n > p.opts.ClipNorm {
				delta = delta.Scale(p.opts.ClipNorm / n)
				out = p.ref.Add(delta)
			}
		}
	}
	if p.opts.NoiseStd > 0 {
		for i := range out {
			out[i] += p.rng.Normal(0, p.opts.NoiseStd)
		}
	}
	p.ref = raw
	p.released = out
	return out.Clone()
}
