package core

import (
	"fmt"

	"fedcross/internal/fl"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// AccelMode selects a Section III-D training-acceleration method.
type AccelMode int

const (
	// AccelNone runs vanilla FedCross.
	AccelNone AccelMode = iota
	// AccelPropeller aggregates each middleware model with several
	// in-order "propeller" models during the acceleration window
	// ("FedCross w/ PM").
	AccelPropeller
	// AccelDynamicAlpha ramps α from dynAlphaStart up to Alpha across the
	// acceleration window ("FedCross w/ DA").
	AccelDynamicAlpha
	// AccelBoth uses propeller models for the first half of the window and
	// dynamic α for the second half ("FedCross w/ PM-DA").
	AccelBoth
)

// String returns the mode's report name.
func (m AccelMode) String() string {
	switch m {
	case AccelNone:
		return "vanilla"
	case AccelPropeller:
		return "pm"
	case AccelDynamicAlpha:
		return "da"
	case AccelBoth:
		return "pm-da"
	default:
		return fmt.Sprintf("accel(%d)", int(m))
	}
}

// Options configures FedCross. The zero value is not valid; use
// DefaultOptions.
type Options struct {
	// Alpha is the cross-aggregation weight of the model's own update;
	// the paper requires α ∈ [0.5, 1) and recommends 0.99.
	Alpha float64
	// Strategy picks the collaborative model (paper default: lowest
	// similarity).
	Strategy Strategy
	// Similarity is the measure behind the similarity strategies
	// (default cosine).
	Similarity Measure
	// Accel selects a training-acceleration method.
	Accel AccelMode
	// AccelRounds is the acceleration window length (rounds).
	AccelRounds int
	// PropellerCount is how many in-order propeller models each
	// middleware model learns from during AccelPropeller.
	PropellerCount int
	// DisableShuffle turns off Algorithm 1's Shuffle(Lc) step, pinning
	// middleware model i to selected client slot i. The paper keeps the
	// shuffle because without it "each middleware model will be dispatched
	// to the clients encountered in the previous training rounds with a
	// high probability"; this switch exists for the ablation that
	// quantifies that claim.
	DisableShuffle bool
}

// DefaultOptions mirrors the paper's recommended setting: α = 0.99 with
// the lowest-similarity strategy, no acceleration.
func DefaultOptions() Options {
	return Options{
		Alpha:          0.99,
		Strategy:       LowestSimilarity,
		Similarity:     CosineMeasure(),
		Accel:          AccelNone,
		AccelRounds:    100,
		PropellerCount: 3,
	}
}

// Validate reports the first problem with the options.
func (o Options) Validate() error {
	if _, err := o.Similarity.normalize(); err != nil {
		return err
	}
	switch {
	case !(0.5 <= o.Alpha && o.Alpha < 1):
		return fmt.Errorf("core: alpha %v out of the paper's range [0.5, 1)", o.Alpha)
	case o.Strategy != InOrder && o.Strategy != HighestSimilarity && o.Strategy != LowestSimilarity:
		return fmt.Errorf("core: unknown strategy %d", int(o.Strategy))
	case o.Accel < AccelNone || o.Accel > AccelBoth:
		return fmt.Errorf("core: unknown acceleration mode %d", int(o.Accel))
	case o.Accel != AccelNone && o.AccelRounds <= 0:
		return fmt.Errorf("core: acceleration needs AccelRounds > 0, got %d", o.AccelRounds)
	case (o.Accel == AccelPropeller || o.Accel == AccelBoth) && o.PropellerCount < 1:
		return fmt.Errorf("core: propeller acceleration needs PropellerCount >= 1, got %d", o.PropellerCount)
	}
	return nil
}

// FedCross is the multi-model cross-aggregation algorithm. It satisfies
// fl.Algorithm (and fl.TransportUser: middleware dispatches and uploads
// cross the simulated wire).
//
// A federation holds three sets of K parameter vectors: the middleware
// models, the upload buffers and the spare set, which serves a lossy
// wire's dispatches and then the round's cross-aggregation.
type FedCross struct {
	opts Options

	fl.Wire
	env *fl.Env
	cfg fl.Config
	rng *tensor.RNG

	// middleware holds the K middleware-model parameter vectors W.
	middleware []nn.ParamVector
	// spare is the previous round's middleware storage. Under a lossy
	// codec spare[i] first receives slot i's decoded dispatch, its training
	// init and the delta reference its upload is encoded against (the
	// pass-through wire dispatches the middleware vector itself and leaves
	// spare alone). The reference dies once UpAll has decoded the uploads,
	// and aggregate writes the next middleware models over the set, so
	// steady-state rounds allocate no parameter-sized buffers.
	spare []nn.ParamVector
	// uploadBuf holds K recycled destination vectors that TrainAll
	// flattens trained parameters into (LocalSpec.Out), replacing the
	// per-job result allocation. The buffers are only read during the
	// same round's aggregation, so reusing them every round is safe.
	uploadBuf []nn.ParamVector
	// mean is GlobalModelGen of the current middleware list, folded by
	// aggregate's span pass. It is nil until the first aggregation, after
	// LoadState and whenever a Reducer fuses the deployment model, and
	// then Global computes the deployment model itself.
	mean nn.ParamVector
	// co and views are aggregate's scratch: the resolved co-model or
	// propeller indices and the span pass's sub-slice headers.
	co    []int
	views []nn.ParamVector
}

// New constructs a FedCross instance with the given options.
func New(opts Options) (*FedCross, error) {
	sim, err := opts.Similarity.normalize()
	if err != nil {
		return nil, err
	}
	opts.Similarity = sim
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &FedCross{opts: opts}, nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(opts Options) *FedCross {
	f, err := New(opts)
	if err != nil {
		panic(err)
	}
	return f
}

// Name implements fl.Algorithm.
func (f *FedCross) Name() string {
	if f.opts.Accel == AccelNone {
		return "fedcross"
	}
	return "fedcross+" + f.opts.Accel.String()
}

// Category implements fl.Algorithm (Table I's taxonomy).
func (f *FedCross) Category() string { return "Multi-Model Guided" }

// Init creates the K middleware models. All K start from one shared
// random initialisation (FedCross is "implemented on top of vanilla
// FedAvg", whose global model is cloned to every participant): averaging
// independently initialised networks is meaningless under permutation
// symmetry, so a shared starting point is what makes GlobalModelGen's
// one-shot average coherent. The models then diverge only through local
// training, and cross-aggregation bounds how far apart they drift.
func (f *FedCross) Init(env *fl.Env, cfg fl.Config, rng *tensor.RNG) error {
	f.env, f.cfg, f.rng = env, cfg, rng
	k := cfg.ClientsPerRound
	if k > env.NumClients() {
		k = env.NumClients()
	}
	if k < 2 {
		return fmt.Errorf("core: FedCross needs at least 2 clients per round, got %d", k)
	}
	init := nn.FlattenParams(env.Model.New(rng.Split()).Params())
	f.middleware = make([]nn.ParamVector, k)
	for i := range f.middleware {
		f.middleware[i] = init.Clone()
	}
	f.spare, f.mean = nil, nil
	return nil
}

// Round implements Algorithm 1's training loop body: shuffle the
// model-to-client assignment, train each middleware model on its client,
// then cross-aggregate every upload with its collaborative model.
func (f *FedCross) Round(r int, selected []int) error {
	k := len(f.middleware)
	if len(selected) < k {
		return fmt.Errorf("core: FedCross round %d: %d selected clients for %d middleware models", r, len(selected), k)
	}
	// Shuffle(Lc): randomise which client trains which middleware model so
	// each model sees different data across rounds even if selection
	// repeats. The ablation switch pins the identity assignment instead.
	var assign []int
	if f.opts.DisableShuffle {
		assign = make([]int, k)
		for i := range assign {
			assign[i] = i
		}
	} else {
		assign = f.rng.Perm(k)
	}

	// Local training, fanned out over the worker pool. Jobs are prepared
	// serially — the per-client RNG splits and the transport dispatches
	// happen here, in slot order, so the streams (and the wire's byte and
	// clock accounting) are identical at every parallelism level; only
	// the payloads' codec round trips fan out, inside the transport. A
	// dropped client (-1) leaves its middleware model untrained this
	// round (v_i = w_i), the natural fault-tolerant reading of
	// Algorithm 1; a straggler whose upload misses the round deadline
	// degrades the same way.
	tr := f.Transport()
	n := len(f.middleware[0])
	f.ensureUploadBuf(k, n)
	passThrough := tr.PassThrough()
	if !passThrough {
		f.spare = ensureVecs(f.spare, k, n)
	}
	// slots[j] is the middleware slot client clients[j] trains; sent[j] is
	// its dispatch and recv[j] what the client received — spare[i] under a
	// lossy codec, the middleware vector itself on the pass-through wire.
	slots := make([]int, 0, k)
	clients := make([]int, 0, k)
	sent := make([]nn.ParamVector, 0, k)
	recv := make([]nn.ParamVector, 0, k)
	for i := 0; i < k; i++ {
		ci := selected[assign[i]]
		// An untrainable client (virtualized federation, empty shard)
		// degrades exactly like a crashed one: its middleware model skips the
		// round untrained.
		if ci < 0 || !f.env.Fed.Trainable(ci) {
			continue
		}
		var dst nn.ParamVector
		if !passThrough {
			dst = f.spare[i]
		}
		slots = append(slots, i)
		clients = append(clients, ci)
		sent = append(sent, f.middleware[i])
		recv = append(recv, dst)
	}
	tr.DownAll(recv, clients, sent, f.cfg.Allowance())
	jobs := make([]fl.LocalJob, len(slots))
	for j, i := range slots {
		spec := f.cfg.LocalSpec()
		spec.Init, spec.Out = recv[j], f.uploadBuf[i]
		jobs[j] = fl.LocalJob{Client: clients[j], Spec: spec, RNG: f.rng.Split()}
	}
	results, err := fl.TrainAll(f.env, jobs, f.cfg.Allowance())
	if err != nil {
		return fmt.Errorf("core: FedCross round %d: %w", r, err)
	}
	// Each upload returns delta-encoded against its slot's dispatch (the
	// one vector both endpoints hold bit-identically), decoded in place
	// into the slot's recycled upload buffer.
	params := make([]nn.ParamVector, len(results))
	for j, res := range results {
		params[j] = res.Params
	}
	ok := make([]bool, len(results))
	tr.UpAll(params, ok, clients, params, recv, f.cfg.Allowance())
	uploads := make([]nn.ParamVector, k)
	copy(uploads, f.middleware) // untrained slots upload their model as-is
	arrived := 0
	for j, i := range slots {
		if ok[j] {
			uploads[i] = params[j]
			arrived++
		}
	}
	if f.cfg.BelowQuorum(arrived) {
		return nil // degraded round: every middleware model stays as it was
	}

	f.middleware = f.aggregate(r, uploads)
	return nil
}

// ensureUploadBuf sizes the recycled upload destinations for K models of
// n parameters (a no-op at steady state).
func (f *FedCross) ensureUploadBuf(k, n int) {
	f.uploadBuf = ensureVecs(f.uploadBuf, k, n)
}

// ensureVecs sizes a recycled list of K n-length vectors (a no-op at
// steady state).
func ensureVecs(vs []nn.ParamVector, k, n int) []nn.ParamVector {
	if len(vs) != k {
		vs = make([]nn.ParamVector, k)
	}
	for i := range vs {
		if len(vs[i]) != n {
			vs[i] = make(nn.ParamVector, n)
		}
	}
	return vs
}

// spanLen is the width of aggregate's column spans in float64s: one
// span of the K uploads, the K next models and the mean is ≈ 1 MB at
// K = 64, so the mean folds the lerps' output while it is still in L2.
const spanLen = 1024

// aggregate applies cross-aggregation (with any active acceleration) to
// the uploads and returns the next round's middleware list; without a
// Reducer it also leaves GlobalModelGen of that list in f.mean. The
// destinations are f.spare, the round-before-last's middleware storage.
// On a lossy wire that set holds this round's decoded dispatches, dead
// once UpAll has used them as delta references. The uploads alias only
// recycled upload buffers, the *current* middleware list or an
// adversary's payloads, never the spare set.
//
// Every co-model (or propeller list) is resolved first. When a similarity
// strategy is active, the K×K score matrix is built once here — one tiled
// Gram pass, norms included (NewSimMatrix) — and consumed by every
// selection; CoModelSelMatrix scans it exactly like the naive loop, so the
// round is bit-identical to per-selection recomputation. Then one pass of
// column spans fans out over the workers (crossPass.run).
func (f *FedCross) aggregate(r int, uploads []nn.ParamVector) []nn.ParamVector {
	k, n := len(uploads), len(uploads[0])
	next := ensureVecs(f.spare, k, n)
	f.spare = f.middleware
	p := &crossPass{next: next, uploads: uploads, co: f.co[:0], alpha: f.effectiveAlpha(r), views: f.views}
	if f.propellerActive(r) {
		p.props = min(f.opts.PropellerCount, k-1)
		for i := 0; i < k; i++ {
			p.co = f.propellerSel(p.co, i, r, uploads)
		}
	} else {
		var gram *SimMatrix
		if f.opts.Strategy == HighestSimilarity || f.opts.Strategy == LowestSimilarity {
			gram = NewSimMatrix(uploads, f.opts.Similarity, f.cfg.Allowance())
		}
		for i := 0; i < k; i++ {
			var co int
			if gram != nil {
				co = CoModelSelMatrix(f.opts.Strategy, i, r, gram)
			} else {
				co = CoModelSel(f.opts.Strategy, i, r, uploads, f.opts.Similarity.Pair)
			}
			p.co = append(p.co, co)
		}
	}
	// A configured Reducer fuses the deployment model on its own path
	// (Global), so the pass folds no mean.
	if f.cfg.Reducer == nil {
		if len(f.mean) != n {
			f.mean = make(nn.ParamVector, n)
		}
		p.mean = f.mean
	}
	p.run(f.cfg.Allowance())
	f.co, f.views = p.co, p.views
	clear(f.views) // the scratch holds on to no round's vectors
	return next
}

// crossPass is one round's resolved cross-aggregation. Model i fuses
// uploads[i] with uploads[co[i]] or, when props > 0, with the mean of its
// props propellers uploads[co[i·props : (i+1)·props]]. views is the
// span scratch, which aggregate keeps across rounds.
type crossPass struct {
	next, uploads []nn.ParamVector
	co            []int
	props         int
	alpha         float64
	mean          nn.ParamVector
	views         []nn.ParamVector
}

// run writes every next model and, when mean is non-nil, their mean into
// mean, in column spans of spanLen fanned out over w. A span lerps its K
// columns (or takes each propeller mean, then the lerp) and then folds
// their mean with nn.MeanVectorsTo on the same sub-slices while they are
// still cached; the per-model lerps and GlobalModelGen would stream the K
// vectors twice. Every coordinate sees their operations in their order,
// so the result is theirs to the bit. The span boundaries depend on the
// vector length only, spans write disjoint columns, and each owns a
// window of views, so a span allocates nothing.
func (p *crossPass) run(w fl.Workers) {
	k, n := len(p.next), len(p.next[0])
	spans := (n + spanLen - 1) / spanLen
	if len(p.views) < spans*k {
		p.views = make([]nn.ParamVector, spans*k)
	}
	fl.ParallelForW(spans, w, func(s int) {
		lo, hi := s*spanLen, min((s+1)*spanLen, n)
		views := p.views[s*k : (s+1)*k]
		for i, dst := range p.next {
			dst, v := dst[lo:hi], p.uploads[i][lo:hi]
			if p.props == 0 {
				nn.LerpVectorsTo(dst, v, p.uploads[p.co[i]][lo:hi], p.alpha)
				continue
			}
			props := views[:0]
			for _, j := range p.co[i*p.props : (i+1)*p.props] {
				props = append(props, p.uploads[j][lo:hi])
			}
			propellerAggrTo(dst, v, props, p.alpha)
		}
		if p.mean != nil {
			for i, v := range p.next {
				views[i] = v[lo:hi]
			}
			nn.MeanVectorsTo(p.mean[lo:hi], views)
		}
	})
}

// CrossAggrAll is one round's cross-aggregation through aggregate's span
// pass: next[i] = CrossAggr(uploads[i], uploads[co[i]], alpha) for every i
// and, when mean is non-nil, GlobalModelGen(next) into mean, bit for bit,
// fanned out over w. next must not alias the uploads.
func CrossAggrAll(next, uploads []nn.ParamVector, co []int, alpha float64, mean nn.ParamVector, w fl.Workers) {
	p := crossPass{next: next, uploads: uploads, co: co, alpha: alpha, mean: mean}
	p.run(w)
}

// effectiveAlpha returns α for round r, honouring dynamic-α acceleration.
func (f *FedCross) effectiveAlpha(r int) float64 {
	switch f.opts.Accel {
	case AccelDynamicAlpha:
		return f.rampAlpha(r, 0, f.opts.AccelRounds)
	case AccelBoth:
		// DA covers the second half of the window.
		half := f.opts.AccelRounds / 2
		if r < half {
			return f.opts.Alpha // PM phase uses the nominal alpha
		}
		return f.rampAlpha(r, half, f.opts.AccelRounds)
	default:
		return f.opts.Alpha
	}
}

// dynAlphaStart is the initial α of the dynamic-α ramp, the low end of
// the paper's α range.
const dynAlphaStart = 0.5

// rampAlpha linearly interpolates from dynAlphaStart at round start to
// Alpha at round end, and is Alpha from then on. r is at least start.
func (f *FedCross) rampAlpha(r, start, end int) float64 {
	if r >= end {
		return f.opts.Alpha
	}
	frac := float64(r-start) / float64(end-start)
	return dynAlphaStart + frac*(f.opts.Alpha-dynAlphaStart)
}

// propellerActive reports whether propeller aggregation applies in round r.
func (f *FedCross) propellerActive(r int) bool {
	switch f.opts.Accel {
	case AccelPropeller:
		return r < f.opts.AccelRounds
	case AccelBoth:
		return r < f.opts.AccelRounds/2
	default:
		return false
	}
}

// propellerSel appends upload i's P in-order propeller models for round
// r to dst: CoModelSel's in-order choice for rounds r, r+1, …, with
// P = PropellerCount capped at K−1.
func (f *FedCross) propellerSel(dst []int, i, r int, uploads []nn.ParamVector) []int {
	for step := 0; step < min(f.opts.PropellerCount, len(uploads)-1); step++ {
		dst = append(dst, CoModelSel(InOrder, i, r+step, uploads, nil))
	}
	return dst
}

// propellerAggrTo fuses upload v with the mean of its propeller models
// into dst: α·v + (1−α)·mean(props). Using several propellers gives each
// middleware model more knowledge per round, accelerating early training
// (Section III-D). The propeller mean is built in dst itself, then lerped
// against the upload in place.
func propellerAggrTo(dst, v nn.ParamVector, props []nn.ParamVector, alpha float64) {
	nn.MeanVectorsTo(dst, props)
	nn.LerpVectorsTo(dst, v, dst, alpha)
}

// Global implements fl.Algorithm: the one-shot fusion of the middleware
// models, which never trains. The default is GlobalModelGen's plain mean:
// a copy of the mean aggregate folded, or the mean itself before the
// first aggregation and after LoadState. With a Config.Reducer set, the
// configured rule fuses the middleware instead, so a Byzantine middleware
// model (poisoned through a compromised client's cross-aggregation) cannot
// steer the deployment model. nil stays bit-identical to GlobalModelGen.
func (f *FedCross) Global() nn.ParamVector {
	if f.cfg.Reducer != nil {
		// Middleware vectors are engine-owned; only a fully non-finite set
		// can fail here, and then the plain mean is no worse.
		if agg, err := fl.ReduceUploads(f.cfg.Reducer, f.middleware, nil); err == nil {
			return agg
		}
	} else if f.mean != nil {
		return f.mean.Clone()
	}
	return GlobalModelGen(f.middleware)
}

// Middleware exposes copies of the middleware-model vectors for analysis
// (loss landscapes, similarity audits).
func (f *FedCross) Middleware() []nn.ParamVector {
	out := make([]nn.ParamVector, len(f.middleware))
	for i, m := range f.middleware {
		out[i] = m.Clone()
	}
	return out
}

// RoundComm implements fl.Algorithm: K models down, K models up — exactly
// FedAvg's footprint, the paper's Table I "Low" row.
func (f *FedCross) RoundComm(k int) fl.CommProfile {
	return fl.CommProfile{ModelsDown: k, ModelsUp: k}
}
