package baselines

import (
	"fmt"
	"io"

	"fedcross/internal/fl"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// server is what every baseline's server holds between rounds: the
// simulated wire, the environment and configuration Init received, the
// algorithm's RNG stream and the global model.
type server struct {
	fl.Wire
	env    *fl.Env
	cfg    fl.Config
	rng    *tensor.RNG
	global nn.ParamVector
}

// init records the run and creates the initial global model.
func (s *server) init(env *fl.Env, cfg fl.Config, rng *tensor.RNG) {
	s.env, s.cfg, s.rng = env, cfg, rng
	s.global = nn.FlattenParams(env.Model.New(rng.Split()).Params())
}

// Global implements fl.Algorithm.
func (s *server) Global() nn.ParamVector { return s.global }

// Round-granular checkpoint state for the five baselines, implementing
// fl.RoundCheckpointer. Each algorithm serializes exactly the state that
// survives across rounds — the global model and the algorithm RNG's
// (seed, position) snapshot (SaveState / LoadState below, which FedAvg,
// and FedProx through it, use as they are), then any per-client server
// memory — so a resumed run replays the remaining rounds bit-identically.
// Per-round scratch (decode buffers, job lists, FedGen's client-side
// generator twin) is rebuilt from that state and deliberately absent.

// SaveState implements fl.RoundCheckpointer.
func (s *server) SaveState(w io.Writer) error {
	if err := nn.WriteVector(w, s.global); err != nil {
		return err
	}
	return nn.WriteRNG(w, s.rng)
}

// LoadState implements fl.RoundCheckpointer.
func (s *server) LoadState(r io.Reader) error {
	global, err := nn.ReadVector(r)
	if err != nil {
		return fmt.Errorf("baselines: global model: %w", err)
	}
	rng, err := nn.ReadRNG(r)
	if err != nil {
		return fmt.Errorf("baselines: algorithm rng: %w", err)
	}
	s.global, s.rng = global, rng
	return nil
}

// SaveState implements fl.RoundCheckpointer: the server state, then both
// control variates (server c and the per-client cᵢ map).
func (a *SCAFFOLD) SaveState(w io.Writer) error {
	if err := a.server.SaveState(w); err != nil {
		return err
	}
	if err := nn.WriteVector(w, a.c); err != nil {
		return err
	}
	return nn.WriteVectorMap(w, a.ci)
}

// LoadState implements fl.RoundCheckpointer.
func (a *SCAFFOLD) LoadState(r io.Reader) error {
	if err := a.server.LoadState(r); err != nil {
		return err
	}
	c, err := nn.ReadVector(r)
	if err != nil {
		return fmt.Errorf("baselines: scaffold state: %w", err)
	}
	ci, err := nn.ReadVectorMap(r)
	if err != nil {
		return fmt.Errorf("baselines: scaffold state: %w", err)
	}
	a.c, a.ci = c, ci
	return nil
}

// SaveState implements fl.RoundCheckpointer: the server state, then the
// gradient memory driving cluster selection.
func (a *CluSamp) SaveState(w io.Writer) error {
	if err := a.server.SaveState(w); err != nil {
		return err
	}
	return nn.WriteVectorMap(w, a.updates)
}

// LoadState implements fl.RoundCheckpointer.
func (a *CluSamp) LoadState(r io.Reader) error {
	if err := a.server.LoadState(r); err != nil {
		return err
	}
	updates, err := nn.ReadVectorMap(r)
	if err != nil {
		return fmt.Errorf("baselines: clusamp state: %w", err)
	}
	a.updates = updates
	return nil
}

// SaveState implements fl.RoundCheckpointer: the server state, then the
// server-side generator's parameters and its optimizer momentum. The
// client-side twin is per-round scratch — the next round's broadcast
// overwrites it before any use.
func (a *FedGen) SaveState(w io.Writer) error {
	if err := a.server.SaveState(w); err != nil {
		return err
	}
	if err := nn.WriteVector(w, nn.FlattenParams(a.gen.Params())); err != nil {
		return err
	}
	return a.genOpt.SaveState(w)
}

// LoadState implements fl.RoundCheckpointer. Init has already built the
// generator networks with the correct architecture (it runs before any
// resume), so the saved parameters load into the existing layers.
func (a *FedGen) LoadState(r io.Reader) error {
	if err := a.server.LoadState(r); err != nil {
		return err
	}
	genVec, err := nn.ReadVector(r)
	if err != nil {
		return fmt.Errorf("baselines: fedgen state: %w", err)
	}
	if err := nn.LoadParams(a.gen.Params(), genVec); err != nil {
		return fmt.Errorf("baselines: fedgen state: generator params: %w", err)
	}
	if err := a.genOpt.LoadState(r); err != nil {
		return fmt.Errorf("baselines: fedgen state: optimizer: %w", err)
	}
	return nil
}
