package baselines

import (
	"io"

	"fedcross/internal/fl"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// server is what every baseline's server holds between rounds: the
// simulated wire, the environment and configuration Init received, the
// algorithm's RNG stream and the global model, and two recycled scratch
// sets no round reads past its own end.
type server struct {
	fl.Wire
	env    *fl.Env
	cfg    fl.Config
	rng    *tensor.RNG
	global nn.ParamVector
	// recvBuf is the model broadcast's decode destination.
	recvBuf nn.ParamVector
	// outs are the jobs' LocalSpec.Out, one per trained client, so
	// TrainLocal allocates no parameter vector. An upload is read only
	// inside its round (reducers return fresh vectors, the adversary
	// corrupts into buffers of its own, and SCAFFOLD, CluSamp and FedGen
	// keep copies), so the next round may train into the same buffers.
	outs []nn.ParamVector
}

// jobOuts returns k recycled upload destinations of the global model's
// length, sized on first use.
func (s *server) jobOuts(k int) []nn.ParamVector {
	for len(s.outs) < k {
		s.outs = append(s.outs, make(nn.ParamVector, len(s.global)))
	}
	return s.outs[:k]
}

// init records the run and creates the initial global model.
func (s *server) init(env *fl.Env, cfg fl.Config, rng *tensor.RNG) {
	s.env, s.cfg, s.rng = env, cfg, rng
	s.global = nn.FlattenParams(env.Model.New(rng.Split()).Params())
	s.outs = nil
}

// Global implements fl.Algorithm.
func (s *server) Global() nn.ParamVector { return s.global }

// Round-granular checkpoint state for the five baselines, through nn's
// state codec: the global model and the algorithm RNG's (seed, position)
// — all of FedAvg's and FedProx's state — then any per-client server
// memory, so a resumed run replays the remaining rounds bit-identically.
// Per-round scratch (decode buffers, FedGen's client-side generator twin)
// is rebuilt, not saved. LoadState runs after Init, so every vector is
// read at the parameter count Init produced and every client key inside
// the population, and nothing is installed unless the whole blob decoded.

func (s *server) encode(e *nn.StateEncoder) {
	e.Vector(s.global)
	e.RNG(s.rng)
}

func (s *server) decode(d *nn.StateDecoder) (install func()) {
	if s.global == nil {
		d.Fail("state loaded before Init")
	}
	global, rng := d.Vector(len(s.global)), d.RNG()
	return func() { s.global, s.rng = global, rng }
}

// SaveState implements fl.RoundCheckpointer.
func (s *server) SaveState(w io.Writer) error { return nn.EncodeState(w, s.encode) }

// LoadState implements fl.RoundCheckpointer.
func (s *server) LoadState(r io.Reader) error { return nn.DecodeState(r, s.decode) }

// SaveState implements fl.RoundCheckpointer: the server state, then both
// control variates (server c and the per-client cᵢ map).
func (a *SCAFFOLD) SaveState(w io.Writer) error {
	return nn.EncodeState(w, func(e *nn.StateEncoder) {
		a.encode(e)
		e.Vector(a.c)
		e.VectorMap(a.ci)
	})
}

// LoadState implements fl.RoundCheckpointer.
func (a *SCAFFOLD) LoadState(r io.Reader) error {
	return nn.DecodeState(r, func(d *nn.StateDecoder) func() {
		server := a.decode(d)
		c, ci := d.Vector(len(a.global)), d.VectorMap(a.env.NumClients(), len(a.global))
		return func() { server(); a.c, a.ci = c, ci }
	})
}

// SaveState implements fl.RoundCheckpointer: the server state, then the
// gradient memory driving cluster selection.
func (a *CluSamp) SaveState(w io.Writer) error {
	return nn.EncodeState(w, func(e *nn.StateEncoder) {
		a.encode(e)
		e.VectorMap(a.updates)
	})
}

// LoadState implements fl.RoundCheckpointer.
func (a *CluSamp) LoadState(r io.Reader) error {
	return nn.DecodeState(r, func(d *nn.StateDecoder) func() {
		server := a.decode(d)
		updates := d.VectorMap(a.env.NumClients(), len(a.global))
		return func() { server(); a.updates = updates }
	})
}

// SaveState implements fl.RoundCheckpointer: the server state, then the
// server-side generator's parameters and its optimizer momentum.
func (a *FedGen) SaveState(w io.Writer) error {
	return nn.EncodeState(w, func(e *nn.StateEncoder) {
		a.encode(e)
		e.Vector(nn.FlattenParams(a.gen.Params()))
		a.genOpt.EncodeState(e)
	})
}

// LoadState implements fl.RoundCheckpointer, reading the generator's
// parameters and momentum buffers at the shapes Init built.
func (a *FedGen) LoadState(r io.Reader) error {
	return nn.DecodeState(r, func(d *nn.StateDecoder) func() {
		server := a.decode(d)
		gen := d.Vector(len(a.genVec))
		opt := a.genOpt.DecodeState(d, a.gen.Params())
		return func() {
			server()
			_ = nn.LoadParams(a.gen.Params(), gen) // cannot fail: gen has the generator's length
			opt()
		}
	})
}
