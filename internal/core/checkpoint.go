package core

import (
	"io"

	"fedcross/internal/nn"
)

// SaveState implements fl.RoundCheckpointer through nn's state codec: the
// middleware count and vectors — the state behind the paper's remark that
// global-model generation "can be performed asynchronously at any time" —
// then the algorithm RNG's (seed, position). The spare/upload/recv
// buffers are per-round scratch, rebuilt on the first resumed round.
func (f *FedCross) SaveState(w io.Writer) error {
	return nn.EncodeState(w, func(e *nn.StateEncoder) {
		e.Int(len(f.middleware))
		for _, m := range f.middleware {
			e.Vector(m)
		}
		e.RNG(f.rng)
	})
}

// LoadState implements fl.RoundCheckpointer. Init has already run (it
// precedes any resume), so the blob must hold exactly Init's K models of
// Init's parameter count; nothing is installed unless all of it decodes,
// and the restored RNG resumes the shuffle/split stream at its
// checkpointed position.
func (f *FedCross) LoadState(r io.Reader) error {
	return nn.DecodeState(r, func(d *nn.StateDecoder) func() {
		if k := d.Int(); k != len(f.middleware) {
			d.Fail("%d middleware models, want %d", k, len(f.middleware))
		}
		mid := make([]nn.ParamVector, len(f.middleware))
		for i := range mid {
			mid[i] = d.Vector(len(f.middleware[0]))
		}
		rng := d.RNG()
		return func() { f.middleware, f.rng, f.spare = mid, rng, nil }
	})
}
