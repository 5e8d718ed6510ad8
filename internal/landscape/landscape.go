// Package landscape visualises loss surfaces around trained models,
// reproducing the paper's Figure 4 (RQ1): FedCross global models should
// sit in flatter valleys than FedAvg's. It implements the
// filter-normalised random-direction technique of Li et al. (2018) —
// per-tensor normalisation at this scale — plus a scalar sharpness metric
// so "flatter" is testable, not just visual.
package landscape

import (
	"fmt"
	"math"

	"fedcross/internal/data"
	"fedcross/internal/fl"
	"fedcross/internal/models"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// Grid is a square 2-D slice of the loss surface: Loss[i][j] is the test
// loss at w + Xs[i]·d1 + Ys[j]·d2.
type Grid struct {
	// Xs and Ys are the offsets along the two directions.
	Xs, Ys []float64
	// Loss[i][j] is the loss at offset (Xs[i], Ys[j]).
	Loss [][]float64
}

// CenterLoss returns the loss at the grid centre (the model itself). The
// grid must have odd resolution.
func (g *Grid) CenterLoss() float64 {
	return g.Loss[len(g.Xs)/2][len(g.Ys)/2]
}

// MaxLoss returns the largest loss on the grid.
func (g *Grid) MaxLoss() float64 {
	m := g.Loss[0][0]
	for _, row := range g.Loss {
		for _, v := range row {
			if v > m {
				m = v
			}
		}
	}
	return m
}

// Options configures a landscape scan.
type Options struct {
	// Resolution is the per-axis grid size; odd values centre the model.
	Resolution int
	// Radius is the scan half-width in filter-normalised units.
	Radius float64
	// Seed picks the two random directions.
	Seed int64
	// MaxSamples caps how many evaluation samples are used (0 = all);
	// landscape scans are Resolution² evaluations, so this bounds cost.
	MaxSamples int
	// Workers is the allowance the per-probe evaluations draw from (the
	// zero value means every core, unbudgeted; the Fig-4 harness attaches
	// the experiment scheduler's shared budget here so concurrent grid
	// cells never oversubscribe).
	Workers fl.Workers
}

// Validate reports the first problem with the options.
func (o Options) Validate() error {
	switch {
	case o.Resolution < 3:
		return fmt.Errorf("landscape: resolution %d must be >= 3", o.Resolution)
	case o.Resolution%2 == 0:
		return fmt.Errorf("landscape: resolution %d must be odd so the model sits at the centre", o.Resolution)
	case !(o.Radius > 0):
		return fmt.Errorf("landscape: radius %v must be positive", o.Radius)
	case o.MaxSamples < 0:
		return fmt.Errorf("landscape: MaxSamples %d negative", o.MaxSamples)
	}
	return nil
}

// Scan2D evaluates the loss surface around vec on ds along two random
// filter-normalised directions.
func Scan2D(factory models.Factory, vec nn.ParamVector, ds *data.Dataset, opts Options) (*Grid, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	eval := ds
	if opts.MaxSamples > 0 && ds.Len() > opts.MaxSamples {
		idx := make([]int, opts.MaxSamples)
		step := ds.Len() / opts.MaxSamples
		for i := range idx {
			idx[i] = i * step
		}
		eval = ds.Subset(idx)
	}

	rng := tensor.NewRNG(opts.Seed)
	d1 := normalizedDirection(factory, vec, rng)
	d2 := normalizedDirection(factory, vec, rng)

	res := opts.Resolution
	xs := make([]float64, res)
	for i := range xs {
		xs[i] = -opts.Radius + 2*opts.Radius*float64(i)/float64(res-1)
	}
	ys := append([]float64(nil), xs...)

	grid := &Grid{Xs: xs, Ys: ys, Loss: make([][]float64, res)}
	probe := vec.Clone()
	for i := range xs {
		grid.Loss[i] = make([]float64, res)
		for j := range ys {
			copy(probe, vec)
			probe.AXPY(xs[i], d1)
			probe.AXPY(ys[j], d2)
			_, loss, err := fl.Evaluate(factory, probe, eval, 64, opts.Workers)
			if err != nil {
				return nil, fmt.Errorf("landscape: probe (%d,%d): %w", i, j, err)
			}
			grid.Loss[i][j] = loss
		}
	}
	return grid, nil
}

// normalizedDirection draws a Gaussian direction and rescales it
// per-parameter-tensor so each tensor's direction norm equals the model
// tensor's norm (the filter-normalisation that makes scans comparable
// across architectures and checkpoints).
func normalizedDirection(factory models.Factory, vec nn.ParamVector, rng *tensor.RNG) nn.ParamVector {
	pool := models.Replicas(factory)
	rep := pool.Get()
	defer pool.Put(rep)
	net := rep.Net
	if err := nn.LoadParams(net.Params(), vec); err != nil {
		panic(fmt.Sprintf("landscape: direction: %v", err))
	}
	dir := make(nn.ParamVector, len(vec))
	for i := range dir {
		dir[i] = rng.Normal(0, 1)
	}
	off := 0
	for _, p := range net.Params() {
		n := p.Len()
		seg := dir[off : off+n]
		segNorm := 0.0
		for _, v := range seg {
			segNorm += v * v
		}
		pNorm := 0.0
		for _, v := range p.Data {
			pNorm += v * v
		}
		if segNorm > 0 {
			scale := 0.0
			if pNorm > 0 {
				scale = math.Sqrt(pNorm) / math.Sqrt(segNorm)
			}
			for k := range seg {
				seg[k] *= scale
			}
		}
		off += n
	}
	return dir
}

// Sharpness measures how steeply the loss rises around vec: the mean loss
// increase at the given radius over nDirs random filter-normalised
// directions. Lower is flatter; the paper's RQ1 expects
// Sharpness(FedCross) < Sharpness(FedAvg).
func Sharpness(factory models.Factory, vec nn.ParamVector, ds *data.Dataset, radius float64, nDirs int, seed int64, w fl.Workers) (float64, error) {
	if !(radius > 0) || nDirs <= 0 {
		return 0, fmt.Errorf("landscape: Sharpness radius %v / nDirs %d invalid", radius, nDirs)
	}
	_, base, err := fl.Evaluate(factory, vec, ds, 64, w)
	if err != nil {
		return 0, fmt.Errorf("landscape: Sharpness base eval: %w", err)
	}
	rng := tensor.NewRNG(seed)
	total := 0.0
	probe := vec.Clone()
	for d := 0; d < nDirs; d++ {
		dir := normalizedDirection(factory, vec, rng)
		copy(probe, vec)
		probe.AXPY(radius, dir)
		_, lp, err := fl.Evaluate(factory, probe, ds, 64, w)
		if err != nil {
			return 0, fmt.Errorf("landscape: Sharpness probe %d: %w", d, err)
		}
		copy(probe, vec)
		probe.AXPY(-radius, dir)
		_, lm, err := fl.Evaluate(factory, probe, ds, 64, w)
		if err != nil {
			return 0, fmt.Errorf("landscape: Sharpness probe -%d: %w", d, err)
		}
		total += 0.5*(lp+lm) - base
	}
	return total / float64(nDirs), nil
}
