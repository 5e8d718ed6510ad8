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
type FedCross struct {
	opts Options

	fl.Wire
	env *fl.Env
	cfg fl.Config
	rng *tensor.RNG

	// middleware holds the K middleware-model parameter vectors W.
	middleware []nn.ParamVector
	// spare is the previous round's middleware storage, recycled as the
	// destination of the next cross-aggregation so steady-state rounds
	// allocate no parameter-sized buffers.
	spare []nn.ParamVector
	// uploadBuf holds K recycled destination vectors that TrainAll
	// flattens trained parameters into (LocalSpec.Out), replacing the
	// per-job result allocation. The buffers are only read during the
	// same round's aggregation, so reusing them every round is safe.
	uploadBuf []nn.ParamVector
	// recvBuf holds K recycled destinations for the wire-decoded
	// middleware dispatches when the codec is lossy (the pass-through
	// wire never touches them). recvBuf[i] is valid for one round: it is
	// the slot's training init and the delta reference its upload is
	// encoded against, and the next round's dispatch overwrites it.
	recvBuf []nn.ParamVector
	// props is the reusable propeller-model scratch list.
	props []nn.ParamVector
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
	f.spare = nil
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
		f.recvBuf = ensureVecs(f.recvBuf, k, n)
	}
	// slots[j] is the middleware slot client clients[j] trains; sent[j] is
	// its dispatch and recv[j] what the client received — recvBuf[i] under
	// a lossy codec, the middleware vector itself on the pass-through wire.
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
			dst = f.recvBuf[i]
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

// aggregate applies cross-aggregation (with any active acceleration) to
// the uploads and returns the next round's middleware list. The
// destination vectors are recycled from the round-before-last's
// middleware storage (f.spare), which nothing references any more: the
// current round's uploads alias only recycled upload buffers or the
// *current* middleware list, never the spare one.
//
// When a similarity strategy is active, the K×K score matrix is built
// once here — one tiled Gram pass, norms included (NewSimMatrix) — and
// consumed by every selection; CoModelSelMatrix scans it exactly like the
// naive loop, so the round is bit-identical to per-selection
// recomputation.
func (f *FedCross) aggregate(r int, uploads []nn.ParamVector) []nn.ParamVector {
	k := len(uploads)
	n := len(uploads[0])
	next := f.spare
	if len(next) != k {
		next = make([]nn.ParamVector, k)
	}
	for i := range next {
		if len(next[i]) != n {
			next[i] = make(nn.ParamVector, n)
		}
	}
	f.spare = f.middleware
	alpha := f.effectiveAlpha(r)
	usePropeller := f.propellerActive(r)
	var gram *SimMatrix
	if !usePropeller && (f.opts.Strategy == HighestSimilarity || f.opts.Strategy == LowestSimilarity) {
		gram = NewSimMatrix(uploads, f.opts.Similarity, f.cfg.Allowance())
	}
	if usePropeller {
		// Propeller aggregation builds each mean through the shared
		// f.props scratch, so it stays serial.
		for i := 0; i < k; i++ {
			f.propellerAggrTo(next[i], i, r, uploads, alpha)
		}
		return next
	}
	// The K fusions write disjoint destinations and only read the uploads
	// and the matrix, so they fan out.
	fl.ParallelForW(k, f.cfg.Allowance(), func(i int) {
		var co int
		if gram != nil {
			co = CoModelSelMatrix(f.opts.Strategy, i, r, gram)
		} else {
			co = CoModelSel(f.opts.Strategy, i, r, uploads, f.opts.Similarity.Pair)
		}
		nn.LerpVectorsTo(next[i], uploads[i], uploads[co], alpha)
	})
	return next
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

// propellerAggrTo fuses upload i with the mean of its P in-order
// propeller models into dst: α·v_i + (1−α)·mean(propellers). Using
// several propellers gives each middleware model more knowledge per
// round, accelerating early training (Section III-D). The propeller mean
// is built in dst itself, then lerped against the upload in place.
func (f *FedCross) propellerAggrTo(dst nn.ParamVector, i, r int, uploads []nn.ParamVector, alpha float64) {
	k := len(uploads)
	p := f.opts.PropellerCount
	if p > k-1 {
		p = k - 1
	}
	f.props = f.props[:0]
	for step := 0; step < p; step++ {
		j := CoModelSel(InOrder, i, r+step, uploads, nil)
		f.props = append(f.props, uploads[j])
	}
	nn.MeanVectorsTo(dst, f.props)
	nn.LerpVectorsTo(dst, uploads[i], dst, alpha)
}

// Global implements fl.Algorithm: the one-shot fusion of the middleware
// models, computed on demand because it never trains. The default is
// GlobalModelGen's plain mean; with a Config.Reducer set, the configured
// rule fuses the middleware instead, so a Byzantine middleware model
// (poisoned through a compromised client's cross-aggregation) cannot
// steer the deployment model. nil stays bit-identical to GlobalModelGen.
func (f *FedCross) Global() nn.ParamVector {
	if f.cfg.Reducer == nil {
		return GlobalModelGen(f.middleware)
	}
	agg, err := fl.ReduceUploads(f.cfg.Reducer, f.middleware, nil)
	if err != nil {
		// Middleware vectors are engine-owned; only a fully non-finite set
		// can fail here, and then the plain mean is no worse.
		return GlobalModelGen(f.middleware)
	}
	return agg
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
