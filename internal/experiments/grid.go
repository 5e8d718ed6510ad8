package experiments

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"

	"fedcross/internal/data"
	"fedcross/internal/fl"
)

// Cell is what one run of a grid needs and nothing else. Every run
// setting lives on the Profile — the place the CLI's global flags already
// put it — so a cell never re-copies a subset of them.
type Cell struct {
	Profile        Profile
	Dataset, Model string
	Het            data.Heterogeneity
	// Algorithm names the method for fl.Run; unused by async cells.
	Algorithm string
	// Async, when non-nil, runs the cell through fl.RunAsync.
	Async *fl.AsyncOptions
}

// run executes the cell under the scheduler's budget and environment
// cache. Profile.Config is taken here, once, after every axis has been
// applied, so nothing an axis leaves alone is lost on the way to the run.
func (c Cell) run(s *Scheduler, seed int64) (*fl.History, error) {
	if c.Async != nil {
		env, err := s.Env(c.Profile, c.Dataset, c.Model, c.Het, seed)
		if err != nil {
			return nil, err
		}
		return fl.RunAsync(env, s.Config(c.Profile, seed), *c.Async)
	}
	hist, _, _, err := s.runOne(c.Profile, c.Dataset, c.Model, c.Het, seed,
		func() (fl.Algorithm, error) { return NewAlgorithm(c.Algorithm) })
	return hist, err
}

// Axis is one swept dimension of a grid. Build one with NewAxis: the axis
// table below is the only place an axis is defined.
type Axis struct {
	// Name is the axis's -grid spelling; Values are swept in order.
	Name   string
	Values []string
	// Set parses one value, validates it and changes one thing on the
	// cell's Profile or coordinates.
	Set func(c *Cell, v string) error
	// Header titles the axis's column; Format renders a value in it (nil
	// prints the value as written).
	Header string
	Format func(v string) string
	// Baseline, when non-empty, is the value whose cell the retention
	// column divides by.
	Baseline string
}

func (a Axis) label(v string) string {
	if a.Format == nil {
		return v
	}
	return a.Format(v)
}

// floatAxis is an axis of real values printed to two decimals.
func floatAxis(header, baseline string, set func(c *Cell, x float64) error) Axis {
	return Axis{Header: header, Baseline: baseline,
		Set: func(c *Cell, v string) error {
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("bad number %q", v)
			}
			return set(c, x)
		},
		Format: func(v string) string {
			x, _ := strconv.ParseFloat(v, 64) // Set has accepted v
			return fmt.Sprintf("%.2f", x)
		}}
}

// asyncAxis is an axis of positive integers set on the cell's async
// options.
func asyncAxis(header string, set func(o *fl.AsyncOptions, n int)) Axis {
	return Axis{Header: header, Set: func(c *Cell, v string) error {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return fmt.Errorf("bad positive integer %q", v)
		}
		if c.Async == nil {
			return fmt.Errorf("cell does not run the async engine")
		}
		set(c.Async, n)
		return nil
	}}
}

// axes is the axis table: name → header, value parser, validation and
// the one thing the axis sets. Like the two tables below it is built on
// demand rather than held in a package variable: a variable's
// initializer would run — and link every closure it names — in each
// program that imports this package, benchmark/ included.
func axes() map[string]Axis {
	return map[string]Axis{
		"codec": {Header: "Codec", Set: func(c *Cell, v string) error {
			c.Profile.Codec = v
			return fl.TransportOptions{Codec: v}.Validate()
		}},
		"reducer": {Header: "Reducer", Set: func(c *Cell, v string) error {
			c.Profile.Reducer = v
			return ValidateReducer(v)
		}},
		"frac": floatAxis("Frac", "0", func(c *Cell, x float64) error {
			c.Profile.AttackFrac = x
			return fl.AdversaryOptions{Attack: c.Profile.Attack, Frac: x, Scale: c.Profile.AttackScale}.Validate()
		}),
		"buffer":   asyncAxis("Buffer", func(o *fl.AsyncOptions, n int) { o.Buffer = n }),
		"inflight": asyncAxis("In-flight", func(o *fl.AsyncOptions, n int) { o.InFlight = n }),
		// Level x sets the crash, drop and straggle rates to x and the
		// truncate/corrupt/duplicate/stall rates to x/2, so one number
		// exercises every fault class; StraggleFactor and StallSec stay as
		// the profile has them.
		"level": floatAxis("Level", "0", func(c *Cell, x float64) error {
			f := &c.Profile.Faults
			f.CrashRate, f.DropRate, f.StraggleRate = x, x, x
			f.TruncateRate, f.CorruptRate, f.DuplicateRate, f.StallRate = x/2, x/2, x/2, x/2
			return f.Validate()
		}),
		// Availability 1 is the static fleet: the baseline carries no churn
		// at all, whatever ramp the other cells share.
		"avail": floatAxis("Availability", "1", func(c *Cell, x float64) error {
			c.Profile.Churn.Availability = x
			if err := c.Profile.Churn.Validate(); err != nil {
				return err
			}
			if x == 1 {
				c.Profile.Churn = fl.ChurnOptions{}
			}
			return nil
		}),
		"algo": {Header: "Algorithm", Set: func(c *Cell, v string) error {
			c.Algorithm = v
			_, err := NewAlgorithm(v)
			return err
		}},
		"model":   {Header: "Model", Set: func(c *Cell, v string) error { c.Model = v; return nil }},
		"dataset": {Header: "Dataset", Set: func(c *Cell, v string) error { c.Dataset = v; return nil }},
		"beta": {Header: "Beta", Set: func(c *Cell, v string) error {
			if v == "iid" {
				c.Het = data.Heterogeneity{IID: true}
				return nil
			}
			b, err := strconv.ParseFloat(v, 64)
			if err != nil || b <= 0 {
				return fmt.Errorf("bad beta %q (want a positive number or iid)", v)
			}
			c.Het = data.Heterogeneity{Beta: b}
			return nil
		}},
	}
}

// AxisNames lists the axis table's names, sorted.
func AxisNames() []string { return slices.Sorted(maps.Keys(axes())) }

// NewAxis returns the named axis over the given values. Values are
// checked when the grid expands, against the cell they are set on.
func NewAxis(name string, values ...string) (Axis, error) {
	a, ok := axes()[name]
	if !ok {
		return Axis{}, fmt.Errorf("experiments: unknown grid axis %q (want one of %v)", name, AxisNames())
	}
	a.Name, a.Values = name, values
	return a, nil
}

// gridColumns are the History counters a grid can print after its
// accuracy columns, by header.
func gridColumns() map[string]func(h *fl.History) string {
	return map[string]func(h *fl.History) string{
		"Crashes":     func(h *fl.History) string { return strconv.Itoa(h.Crashes) },
		"Drops":       func(h *fl.History) string { return strconv.Itoa(h.FaultDrops) },
		"Retries":     func(h *fl.History) string { return strconv.Itoa(h.Retries) },
		"Dups":        func(h *fl.History) string { return strconv.Itoa(h.Duplicates) },
		"Stalls":      func(h *fl.History) string { return strconv.Itoa(h.Stalls) },
		"Degraded":    func(h *fl.History) string { return strconv.Itoa(h.Degraded) },
		"Unavailable": func(h *fl.History) string { return strconv.Itoa(h.Unavailable) },
		"Stragglers":  func(h *fl.History) string { return strconv.Itoa(h.Stragglers) },
		"Arrivals":    func(h *fl.History) string { return strconv.Itoa(h.Comm.ModelsUp) },
		"MB on wire":  func(h *fl.History) string { return megabytes(h.TotalBytes()) },
		"MB up":       func(h *fl.History) string { return megabytes(h.BytesUp) },
	}
}

func megabytes(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }

// Grid is a declared sweep: a base cell, an ordered list of axes expanded
// row-major (the last axis varies fastest), and what to print.
type Grid struct {
	// Title labels the sweep; RunGrid appends what the base cell runs.
	Title string
	Base  Cell
	Axes  []Axis
	// Columns names the gridColumns counters printed after the accuracy
	// (and retention) columns.
	Columns []string
	// Trajectory adds every cell's traffic-vs-accuracy curve under the
	// table.
	Trajectory bool
	// note adds the preset's own run settings to the title.
	note func(p Profile) string
}

// Sweep replaces the values of the grid's axis name.
func (g *Grid) Sweep(name string, values ...string) error {
	var have []string
	for i := range g.Axes {
		if g.Axes[i].Name == name {
			g.Axes[i].Values = values
			return nil
		}
		have = append(have, g.Axes[i].Name)
	}
	return fmt.Errorf("experiments: grid %q has no axis %q (it sweeps %v)", g.Title, name, have)
}

// gridPresets are the system sweeps: each is a base cell on the shared
// vision10 / cnn / Dir(0.5) environment, default axis values, counter
// columns, and base settings applied only where the profile left zero.
func gridPresets() map[string]func(p Profile) Grid {
	return map[string]func(p Profile) Grid{
		// comm: one algorithm per wire codec on identical environments, so
		// the only difference between rows is what the transport does to the
		// payloads — accuracy per megabyte moved.
		"comm": func(p Profile) Grid {
			return Grid{Title: "Comm-vs-accuracy", Base: Cell{Profile: p, Algorithm: "fedcross"},
				Axes:    []Axis{mustAxis("codec", "identity", "fp16", "int8", "topk")},
				Columns: []string{"MB on wire", "Stragglers"}, Trajectory: true, note: netNote}
		},
		// robust: attacker fraction × aggregation rule, each reducer's
		// retention measured against its own benign run.
		"robust": func(p Profile) Grid {
			if p.Attack == "" || p.Attack == fl.AttackNone {
				p.Attack = fl.AttackSignFlip
			}
			return Grid{Title: "Byzantine robustness", Base: Cell{Profile: p, Algorithm: "fedavg"},
				Axes: []Axis{mustAxis("frac", "0", "0.2"),
					mustAxis("reducer", "mean", "trimmed", "median", "krum", "multikrum")},
				note: func(p Profile) string { return "attack=" + p.Attack }}
		},
		// async: the buffered-async engine over commit buffer size ×
		// in-flight concurrency (default K and 2K).
		"async": func(p Profile) Grid {
			k := cmp.Or(p.ClientsPerRound, 4)
			return Grid{Title: "Buffered-async", Base: Cell{Profile: p, Async: &fl.AsyncOptions{}},
				Axes: []Axis{mustAxis("buffer", "1", "4", "8"),
					mustAxis("inflight", strconv.Itoa(k), strconv.Itoa(2*k))},
				Columns: []string{"Arrivals", "MB up"}, note: netNote}
		},
		// faults: increasing fault intensity with a quorum floor and upload
		// retries engaged; level 0 is the bit-identical benign baseline.
		"faults": func(p Profile) Grid {
			p.MinUploads = cmp.Or(p.MinUploads, maxInt(1, p.ClientsPerRound/2))
			p.Retries = cmp.Or(p.Retries, 2)
			p.RetryBackoffSec = cmp.Or(p.RetryBackoffSec, 0.05)
			return Grid{Title: "Fault injection", Base: Cell{Profile: p, Algorithm: "fedavg"},
				Axes:    []Axis{mustAxis("level", "0", "0.05", "0.1")},
				Columns: []string{"Crashes", "Drops", "Retries", "Dups", "Stalls", "Degraded"},
				note: func(p Profile) string {
					return fmt.Sprintf("quorum=%d, retries=%d", p.MinUploads, p.Retries)
				}}
		},
		// churn: decreasing mean availability under per-client jitter and a
		// shrinking fleet (1 → 0.6); with NumClients raised to 10⁵ this is the
		// population-scale churn scenario.
		"churn": func(p Profile) Grid {
			p.Churn.Jitter = cmp.Or(p.Churn.Jitter, 0.3)
			p.Churn.StartFrac = cmp.Or(p.Churn.StartFrac, 1)
			p.Churn.EndFrac = cmp.Or(p.Churn.EndFrac, 0.6)
			return Grid{Title: "Availability churn", Base: Cell{Profile: p, Algorithm: "fedavg"},
				Axes:    []Axis{mustAxis("avail", "1", "0.7", "0.4")},
				Columns: []string{"Unavailable"},
				note:    func(p Profile) string { return fmt.Sprintf("N=%d", p.NumClients) }}
		},
	}
}

func netNote(p Profile) string { return "net=" + cmp.Or(p.Network, "none") }

// mustAxis is NewAxis for the preset literals, whose names are the
// table's own.
func mustAxis(name string, values ...string) Axis {
	a, err := NewAxis(name, values...)
	if err != nil {
		panic(err)
	}
	return a
}

// GridPreset returns the named system sweep over the profile: comm,
// robust, async, faults or churn.
func GridPreset(name string, p Profile) (Grid, error) {
	mk, ok := gridPresets()[name]
	if !ok {
		return Grid{}, fmt.Errorf("experiments: unknown grid preset %q (want one of %v)", name, slices.Sorted(maps.Keys(gridPresets())))
	}
	g := mk(p)
	g.Base.Dataset, g.Base.Model, g.Base.Het = "vision10", "cnn", data.Heterogeneity{Beta: 0.5}
	return g, nil
}

// GridCell is one run of a grid: the value it took on each axis, the
// cell those values produced, and the run's history.
type GridCell struct {
	Coords []string
	Cell
	History *fl.History
}

// GridResult is a grid that has run: Title now says what the base cell
// ran, and Cells holds the runs, row-major over Axes.
type GridResult struct {
	Grid
	Cells []GridCell
}

// RunGrid expands the axes into cells and runs them through the
// scheduler on the profile's first seed: one shared worker budget,
// memoized environments, first failure by cell index. Every axis value is
// applied — and so validated — before any cell runs. Each cell's history
// is a pure function of its seed and settings, so the result is
// bit-identical at every Jobs/Parallelism setting.
func RunGrid(g Grid) (*GridResult, error) {
	n := 1
	for _, ax := range g.Axes {
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("experiments: grid axis %q has no values", ax.Name)
		}
		n *= len(ax.Values)
	}
	counters := gridColumns()
	for _, name := range g.Columns {
		if counters[name] == nil {
			return nil, fmt.Errorf("experiments: unknown grid column %q", name)
		}
	}
	algo := g.Base.Algorithm
	if g.Base.Async != nil {
		algo = "fedbuff"
	}
	res := &GridResult{Grid: g, Cells: make([]GridCell, n)}
	res.Title = fmt.Sprintf("%s — %s on %s/%s", g.Title, algo, g.Base.Dataset, g.Base.Model)
	if g.note != nil {
		res.Title += ", " + g.note(g.Base.Profile)
	}
	for i := range res.Cells {
		gc := &res.Cells[i]
		gc.Cell = g.Base
		if g.Base.Async != nil {
			ao := *g.Base.Async
			gc.Async = &ao
		}
		gc.Coords = make([]string, len(g.Axes))
		for a, rem := len(g.Axes)-1, i; a >= 0; a-- {
			vals := g.Axes[a].Values
			gc.Coords[a] = vals[rem%len(vals)]
			rem /= len(vals)
		}
		for a, ax := range g.Axes {
			if err := ax.Set(&gc.Cell, gc.Coords[a]); err != nil {
				return nil, fmt.Errorf("experiments: grid axis %s=%s: %w", ax.Name, gc.Coords[a], err)
			}
		}
	}
	seed := firstSeed(g.Base.Profile)
	s := newScheduler(g.Base.Profile)
	err := s.Run(n, func(i int) error {
		hist, err := res.Cells[i].run(s, seed)
		if err != nil {
			return fmt.Errorf("experiments: grid cell %s: %w", strings.Join(res.labels(i), " "), err)
		}
		res.Cells[i].History = hist
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// labels renders cell i's coordinates the way their columns print them.
func (r *GridResult) labels(i int) []string {
	out := make([]string, len(r.Axes))
	for a, ax := range r.Axes {
		out[a] = ax.label(r.Cells[i].Coords[a])
	}
	return out
}

// sameValue reports whether two axis values are the same string or the
// same number ("0" and "0.0").
func sameValue(a, b string) bool {
	if a == b {
		return true
	}
	x, errX := strconv.ParseFloat(a, 64)
	y, errY := strconv.ParseFloat(b, 64)
	return errX == nil && errY == nil && x == y
}

// baseline returns the index of the cell that cell i's retention divides
// by — i's coordinates with every baseline-declaring axis moved to its
// baseline value (i itself when no axis declares one) — or -1 when that
// value is not swept.
func (r *GridResult) baseline(i int) int {
	for j := range r.Cells {
		match := true
		for a, ax := range r.Axes {
			match = match && sameValue(r.Cells[j].Coords[a], cmp.Or(ax.Baseline, r.Cells[i].Coords[a]))
		}
		if match {
			return j
		}
	}
	return -1
}

// Retention returns cell i's final accuracy relative to its baseline
// cell's (1 for the baseline itself), or -1 when the baseline is not
// swept or scored zero — the quantity the CI gates threshold.
func (r *GridResult) Retention(i int) float64 {
	if b := r.baseline(i); b >= 0 {
		if acc := r.Cells[b].History.Final().TestAcc; acc > 0 {
			return r.Cells[i].History.Final().TestAcc / acc
		}
	}
	return -1
}

// Render writes the grid as one table: a column per axis, final and best
// accuracy, retention against the baseline cell when an axis declares
// one, then the counter columns — followed by the per-cell trajectories
// when the grid asks for them.
func (r *GridResult) Render(w io.Writer) error {
	t := Table{Title: r.Title}
	retention := false
	for _, ax := range r.Axes {
		t.Header = append(t.Header, ax.Header)
		retention = retention || ax.Baseline != ""
	}
	t.Header = append(t.Header, "Final acc", "Best acc")
	if retention {
		t.Header = append(t.Header, "Retention")
	}
	t.Header = append(t.Header, r.Columns...)
	counters := gridColumns()
	for i, c := range r.Cells {
		row := append(r.labels(i),
			fmt.Sprintf("%.4f", c.History.Final().TestAcc),
			fmt.Sprintf("%.4f", c.History.BestAcc()))
		if retention {
			ret := "-"
			if v := r.Retention(i); v >= 0 && r.baseline(i) != i {
				ret = fmt.Sprintf("%.3f", v)
			}
			row = append(row, ret)
		}
		for _, name := range r.Columns {
			row = append(row, counters[name](c.History))
		}
		t.Add(row...)
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	if !r.Trajectory {
		return nil
	}
	for i, c := range r.Cells {
		ct := Table{
			Title:  fmt.Sprintf("\n%s trajectory", strings.Join(r.labels(i), " ")),
			Header: []string{"Round", "Cum MB", "Acc"},
		}
		for _, m := range c.History.Metrics {
			ct.Add(strconv.Itoa(m.Round), megabytes(m.CumBytesDown+m.CumBytesUp), fmt.Sprintf("%.4f", m.TestAcc))
		}
		if _, err := ct.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}
