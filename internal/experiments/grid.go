package experiments

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"

	"fedcross/internal/core"
	"fedcross/internal/data"
	"fedcross/internal/fl"
	"fedcross/internal/landscape"
	"fedcross/internal/nn"
)

// Cell is what one run of a grid needs and nothing else. Every run
// setting lives on the Profile — the place the axis table's run keys
// put it — so a cell never re-copies a subset of them.
type Cell struct {
	Profile        Profile
	Dataset, Model string
	Het            data.Heterogeneity
	// Algorithm names the method for fl.Run; unused by async cells.
	Algorithm string
	// FedCross is what a "fedcross" cell builds its algorithm from; the
	// alpha, strategy, accel, shuffle, similarity and propellers axes write
	// here.
	FedCross core.Options
	// Async, when non-nil, runs the cell through fl.RunAsync.
	Async *fl.AsyncOptions
}

// run executes the cell under the scheduler's budget and environment
// cache, and returns the history with the environment it leased and the
// global model it trained (nil under the async engine). Profile.Config is
// taken here, once, after every axis has been applied, so nothing an axis
// leaves alone is lost on the way to the run.
func (c Cell) run(s *Scheduler, seed int64) (*fl.History, *fl.Env, nn.ParamVector, error) {
	env, err := s.Env(c.Profile, c.Dataset, c.Model, c.Het, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	if c.Async != nil {
		hist, err := fl.RunAsync(env, s.Config(c.Profile, seed), *c.Async)
		return hist, env, nil, err
	}
	var algo fl.Algorithm
	if c.Algorithm == "fedcross" {
		algo, err = core.New(c.FedCross)
	} else {
		algo, err = NewAlgorithm(c.Algorithm)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	hist, err := fl.Run(algo, env, s.Config(c.Profile, seed))
	return hist, env, algo.Global(), err
}

// resolve normalises a cell once every axis has been applied: the text
// datasets fix their LSTM and, like FEMNIST, come naturally non-IID, so
// the coordinates they ignore take one spelling and cells that differ
// only there compare equal.
func (c *Cell) resolve() {
	switch c.Dataset {
	case "shakespeare", "sent140":
		c.Model = "lstm"
		fallthrough
	case "femnist":
		c.Het = data.Heterogeneity{}
	}
}

// Axis is one key of a cell: swept by a grid that declares it, set to one
// value by Configure on any grid that reads it. Build one with NewAxis:
// the axis table below is the only place an axis is defined.
type Axis struct {
	// Name is the key's -grid and -set spelling; Values are swept in order.
	Name   string
	Values []string
	// Set parses one value, validates what fl.Config.Validate does not
	// and changes one thing on the cell's Profile or coordinates.
	Set func(c *Cell, v string) error
	// Read, when non-nil, reads the coordinate back from the resolved
	// cell: what the cell runs, not what was asked for.
	Read func(c Cell) string
	// Header titles the axis's column; Format renders a value in it (nil
	// prints the value as written).
	Header string
	Format func(v string) string
	// Baseline, when non-empty, is the value whose cell the retention
	// column divides by.
	Baseline string
	// Used, when non-nil, reports whether a grid's cells run what the key
	// sets: an async grid never reads algo, a grid without a FedCross cell
	// never reads alpha. Nil means every grid does.
	Used func(g *Grid) bool
	// Overwrites names keys whose values this axis's Set replaces, so a
	// grid sweeping it does not read them (fig7's n sets K).
	Overwrites []string
}

func (a Axis) label(v string) string {
	if a.Format == nil {
		return v
	}
	return a.Format(v)
}

// floatAxis is an axis of real values printed to two decimals.
func floatAxis(name, header, baseline string, set func(c *Cell, x float64) error) Axis {
	return Axis{Name: name, Header: header, Baseline: baseline,
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

// intAxis is an axis of integers no smaller than least (0 or 1).
func intAxis(name, header string, least int, set func(c *Cell, n int) error) Axis {
	return Axis{Name: name, Header: header, Set: func(c *Cell, v string) error {
		n, err := strconv.Atoi(v)
		if err != nil || n < least {
			return fmt.Errorf("bad %s integer %q", [...]string{"non-negative", "positive"}[least], v)
		}
		return set(c, n)
	}}
}

// asyncSet adapts a setter of the cell's async options; a cell that does
// not run the async engine refuses it.
func asyncSet[T any](set func(o *fl.AsyncOptions, x T)) func(c *Cell, x T) error {
	return func(c *Cell, x T) error {
		if c.Async == nil {
			return fmt.Errorf("cell does not run the async engine")
		}
		set(c.Async, x)
		return c.Async.Validate()
	}
}

// usedBy declares which grids read the axis.
func usedBy(used func(g *Grid) bool, a Axis) Axis {
	a.Used = used
	return a
}

func isSync(g *Grid) bool  { return g.Base.Async == nil }
func isAsync(g *Grid) bool { return g.Base.Async != nil }

// fedcrossAxis is an axis that sets one of the cell's FedCross options
// and validates the set it leaves; only a grid that runs FedCross reads it.
func fedcrossAxis(name, header string, set func(o *core.Options, v string) error) Axis {
	return Axis{Name: name, Header: header, Used: runsFedCross, Set: func(c *Cell, v string) error {
		if err := set(&c.FedCross, v); err != nil {
			return err
		}
		return c.FedCross.Validate()
	}}
}

// runsFedCross reports whether any of the grid's cells runs FedCross: a
// value of its algo axis, or else its base cell.
func runsFedCross(g *Grid) bool {
	if a := g.axis("algo"); a >= 0 {
		return slices.Contains(g.Axes[a].Values, "fedcross")
	}
	return g.Base.Async == nil && g.Base.Algorithm == "fedcross"
}

// setSpec applies a key=value,… spec onto the named fields.
func setSpec(spec string, fields map[string]*float64) error {
	for _, part := range strings.Split(spec, ",") {
		k, v, _ := strings.Cut(part, "=")
		field := fields[strings.TrimSpace(k)]
		x, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if field == nil || err != nil {
			return fmt.Errorf("bad entry %q (want key=number, key one of %s)", part, strings.Join(slices.Sorted(maps.Keys(fields)), ", "))
		}
		*field = x
	}
	return nil
}

// axes is the axis table: name, header, value parser, validation and the
// one thing the key sets. Its order is the order Configure applies
// settings in, whatever order they came in: the population before the K
// it clamps, algo before the FedCross options it decides are read, the
// fault and churn specs before the level and availability that overwrite
// some of their fields. Like the tables below it is built on demand
// rather than held in a package variable: a variable's initializer would
// run — and link every closure it names — in each program that imports
// this package, benchmark/ included.
func axes() []Axis {
	alpha := fedcrossAxis("alpha", "Alpha", func(o *core.Options, v string) (err error) {
		if o.Alpha, err = strconv.ParseFloat(v, 64); err != nil {
			return fmt.Errorf("bad number %q", v)
		}
		return nil
	})
	alpha.Format = func(v string) string { return "alpha=" + v }
	return []Axis{
		{Name: "dataset", Header: "Dataset", Set: func(c *Cell, v string) error { c.Dataset = v; return nil }},
		{Name: "model", Header: "Model", Set: func(c *Cell, v string) error { c.Model = v; return nil },
			Read: func(c Cell) string { return c.Model }},
		{Name: "beta", Header: "Heterogeneity",
			Set: func(c *Cell, v string) error {
				if v == "iid" {
					c.Het = data.Heterogeneity{IID: true}
					return nil
				}
				b, err := strconv.ParseFloat(v, 64)
				if err != nil || !(b > 0) || math.IsInf(b, 1) {
					return fmt.Errorf("bad beta %q (want a positive finite number or iid)", v)
				}
				c.Het = data.Heterogeneity{Beta: b}
				return nil
			},
			Read: func(c Cell) string {
				switch {
				case c.Het == data.Heterogeneity{}:
					return "-" // resolve: the dataset brings its own split
				case c.Het.IID:
					return "iid"
				}
				return strconv.FormatFloat(c.Het.Beta, 'g', -1, 64)
			},
			Format: func(v string) string {
				switch v {
				case "-":
					return v
				case "iid":
					return "IID"
				}
				return "beta=" + v
			}},
		usedBy(isSync, Axis{Name: "algo", Header: "Algorithm", Set: func(c *Cell, v string) error {
			c.Algorithm = v
			_, err := NewAlgorithm(v)
			return err
		}}),
		alpha,
		fedcrossAxis("strategy", "Strategy", func(o *core.Options, v string) (err error) {
			o.Strategy, err = core.StrategyByName(v)
			return err
		}),
		fedcrossAxis("accel", "Acceleration", func(o *core.Options, v string) error {
			for m := core.AccelNone; m <= core.AccelBoth; m++ {
				if m.String() == v {
					o.Accel = m
					return nil
				}
			}
			return fmt.Errorf("unknown acceleration %q (want vanilla, pm, da or pm-da)", v)
		}),
		fedcrossAxis("shuffle", "Shuffle", func(o *core.Options, v string) error {
			if v != "on" && v != "off" {
				return fmt.Errorf("bad shuffle %q (want on or off)", v)
			}
			o.DisableShuffle = v == "off"
			return nil
		}),
		fedcrossAxis("similarity", "Similarity", func(o *core.Options, v string) (err error) {
			o.Similarity, err = core.SimilarityByName(v)
			return err
		}),
		usedBy(runsFedCross, intAxis("propellers", "Propellers", 1, func(c *Cell, n int) error {
			c.FedCross.PropellerCount = n
			return c.FedCross.Validate()
		})),
		// n sets the population and keeps K within it.
		intAxis("n", "N", 1, func(c *Cell, n int) error {
			c.Profile.NumClients = n
			c.Profile.ClientsPerRound = min(c.Profile.ClientsPerRound, n)
			return nil
		}),
		intAxis("k", "K", 1, func(c *Cell, k int) error {
			if k > c.Profile.NumClients {
				return fmt.Errorf("K=%d exceeds the client population N=%d", k, c.Profile.NumClients)
			}
			c.Profile.ClientsPerRound = k
			return nil
		}),
		intAxis("rounds", "Rounds", 1, func(c *Cell, n int) error { c.Profile.Rounds = n; return nil }),
		// The run settings below write one Profile field each; the
		// fl.Config.Validate every cell passes before any runs checks them.
		{Name: "codec", Header: "Codec", Set: func(c *Cell, v string) error { c.Profile.Codec = v; return nil }},
		{Name: "net", Header: "Network", Set: func(c *Cell, v string) error { c.Profile.Network = v; return nil }},
		usedBy(isSync, floatAxis("deadline", "Deadline", "", func(c *Cell, x float64) error { c.Profile.DeadlineSec = x; return nil })),
		usedBy(isSync, intAxis("retries", "Retries", 0, func(c *Cell, n int) error { c.Profile.Retries = n; return nil })),
		usedBy(isSync, floatAxis("retrybackoff", "Backoff", "", func(c *Cell, x float64) error { c.Profile.RetryBackoffSec = x; return nil })),
		// Profile.Config panics on a reducer it cannot build, so this one
		// checks its own.
		usedBy(isSync, Axis{Name: "reducer", Header: "Reducer", Set: func(c *Cell, v string) error {
			c.Profile.Reducer = v
			return ValidateReducer(v)
		}}),
		{Name: "attack", Header: "Attack", Set: func(c *Cell, v string) error { c.Profile.Attack = v; return nil }},
		floatAxis("attackscale", "Attack scale", "", func(c *Cell, x float64) error { c.Profile.AttackScale = x; return nil }),
		floatAxis("frac", "Frac", "0", func(c *Cell, x float64) error { c.Profile.AttackFrac = x; return nil }),
		// faults writes the fields its spec names and keeps the rest; it
		// checks them itself, since level may overwrite the rates.
		{Name: "faults", Header: "Faults", Set: func(c *Cell, v string) error {
			f := &c.Profile.Faults
			return cmp.Or(setSpec(v, map[string]*float64{"crash": &f.CrashRate, "drop": &f.DropRate,
				"truncate": &f.TruncateRate, "corrupt": &f.CorruptRate, "dup": &f.DuplicateRate,
				"straggle": &f.StraggleRate, "stragglefactor": &f.StraggleFactor,
				"stall": &f.StallRate, "stallsec": &f.StallSec}), f.Validate())
		}},
		// Level x sets the crash, drop and straggle rates to x and the
		// truncate/corrupt/duplicate/stall rates to x/2, so one number
		// exercises every fault class; StraggleFactor and StallSec stay as
		// the profile has them.
		floatAxis("level", "Level", "0", func(c *Cell, x float64) error {
			f := &c.Profile.Faults
			f.CrashRate, f.DropRate, f.StraggleRate = x, x, x
			f.TruncateRate, f.CorruptRate, f.DuplicateRate, f.StallRate = x/2, x/2, x/2, x/2
			return nil
		}),
		intAxis("quorum", "Quorum", 0, func(c *Cell, n int) error { c.Profile.MinUploads = n; return nil }),
		usedBy(isSync, Axis{Name: "churn", Header: "Churn", Set: func(c *Cell, v string) error {
			ch := &c.Profile.Churn
			period := float64(ch.PeriodRounds)
			err := setSpec(v, map[string]*float64{"avail": &ch.Availability, "period": &period,
				"jitter": &ch.Jitter, "start": &ch.StartFrac, "end": &ch.EndFrac})
			if ch.PeriodRounds = int(period); err == nil && float64(ch.PeriodRounds) != period {
				err = fmt.Errorf("bad period %v (want a whole number of rounds)", period)
			}
			return cmp.Or(err, ch.Validate())
		}}),
		// Availability 1 is the static fleet: the baseline carries no churn
		// at all, whatever ramp the other cells share.
		usedBy(isSync, floatAxis("avail", "Availability", "1", func(c *Cell, x float64) error {
			c.Profile.Churn.Availability = x
			if x == 1 {
				c.Profile.Churn = fl.ChurnOptions{}
			}
			return nil
		})),
		intAxis("prefetch", "Prefetch", 0, func(c *Cell, n int) error { c.Profile.PrefetchRounds = n; return nil }),
		usedBy(isAsync, intAxis("buffer", "Buffer", 1, asyncSet(func(o *fl.AsyncOptions, n int) { o.Buffer = n }))),
		usedBy(isAsync, intAxis("inflight", "In-flight", 1, asyncSet(func(o *fl.AsyncOptions, n int) { o.InFlight = n }))),
		usedBy(isAsync, floatAxis("staleexp", "Staleness exp", "", asyncSet(func(o *fl.AsyncOptions, x float64) { o.StalenessExp = x }))),
	}
}

// AxisNames lists the axis table's names, sorted.
func AxisNames() []string {
	var names []string
	for _, a := range axes() {
		names = append(names, a.Name)
	}
	slices.Sort(names)
	return names
}

// NewAxis returns the named axis over the given values. Values are
// checked when the grid expands, against the cell they are set on.
func NewAxis(name string, values ...string) (Axis, error) {
	for _, a := range axes() {
		if a.Name == name {
			a.Values = values
			return a, nil
		}
	}
	return Axis{}, fmt.Errorf("experiments: unknown grid axis %q (want one of %v)", name, AxisNames())
}

// Apply sets each key on the cell, in the axis table's order.
func (c *Cell) Apply(set map[string]string) error {
	for _, a := range axes() {
		if v, ok := set[a.Name]; ok {
			if err := a.Set(c, v); err != nil {
				return fmt.Errorf("experiments: %s=%s: %w", a.Name, v, err)
			}
		}
	}
	return nil
}

// measure is what a grid reports for each cell: the seeds and rounds the
// cell runs and evaluates, and the columns it fills. The curve measure
// fills none — its grid is drawn, not tabulated.
type measure struct {
	// finals reads each seed's final model only: the cell runs every
	// Profile.Seeds entry and evaluates once, after its last round.
	// Otherwise it reads the first seed's curve at Profile.EvalEvery.
	finals bool
	heads  []string
	vals   func(c GridCell) []string
	// row, when set, fills the rowHeads columns from a table row's cells
	// together, after the per-value columns.
	rowHeads []string
	row      func(cells []GridCell) []string
	// probe, when set, reads the global model a sync cell trained on seed
	// index si while the cell still holds its environment lease, under the
	// run's worker allowance.
	probe func(c *GridCell, si int, seed int64, env *fl.Env, global nn.ParamVector, w fl.Workers) error
	// under, when set, writes what the measure adds under the table.
	under func(r *GridResult, w io.Writer) error
}

// The sharpness measure's constants: Sharpness probes sharpDirs
// filter-normalised directions at sharpRadius, and the first seed's 2-D
// scan is a scanRes × scanRes grid over [−0.5, 0.5]², scored on at most
// 256 test samples.
const (
	sharpRadius = 0.3
	sharpDirs   = 3
	scanRes     = 5
)

func measures() map[string]measure {
	acc := func(x float64) string { return fmt.Sprintf("%.4f", x) }
	stat := func(c GridCell) []string { return []string{c.Stat().String()} }
	finalAcc := func(c GridCell, si int) float64 { return c.Histories[si].Final().TestAcc }
	sharpness := func(c GridCell, si int) float64 { return c.Sharpness[si] }
	// margin fills the two margin columns from rowMargin against fedavg
	// on x, rendered by format.
	margin := func(x func(c GridCell, si int) float64, lower bool, format func(m marginStat) string) func(cells []GridCell) []string {
		return func(cells []GridCell) []string {
			m, ok := rowMargin(cells, "fedavg", x, lower)
			if !ok {
				return []string{"-", "-"}
			}
			return []string{format(m), fmt.Sprintf("%d/%d seeds", m.Wins, m.Seeds)}
		}
	}
	return map[string]measure{
		"": {heads: []string{"Final acc", "Best acc"}, vals: func(c GridCell) []string {
			return []string{acc(c.History().Final().TestAcc), acc(c.History().BestAcc())}
		}},
		"stat": {finals: true, heads: []string{"Accuracy (%)"}, vals: stat},
		"margin": {finals: true, heads: []string{"Accuracy (%)"}, vals: stat,
			rowHeads: []string{"FedCross − FedAvg (pts)", "FedCross ahead"},
			row:      margin(finalAcc, false, marginStat.String)},
		// sharpness: landscape.Sharpness at each seed's final global model,
		// along directions drawn from the run's seed, compared like margin
		// with FedCross ahead where it is flatter; the first seed's 2-D
		// scans print under the table.
		"sharpness": {finals: true, heads: []string{"Sharpness", "Accuracy (%)"},
			vals: func(c GridCell) []string {
				s := NewStat(c.Sharpness)
				return []string{fmt.Sprintf("%.4f ± %.4f", s.Mean, s.Std), c.Stat().String()}
			},
			rowHeads: []string{"FedCross − FedAvg sharpness", "FedCross flatter"},
			row: margin(sharpness, true, func(m marginStat) string {
				return fmt.Sprintf("%+.4f ± %.4f", m.Mean, m.Std)
			}),
			probe: func(c *GridCell, si int, seed int64, env *fl.Env, global nn.ParamVector, w fl.Workers) (err error) {
				c.Sharpness[si], err = landscape.Sharpness(env.Model, global, env.Fed.Test, sharpRadius, sharpDirs, seed, w)
				if err == nil && si == 0 {
					c.Scan, err = landscape.Scan2D(env.Model, global, env.Fed.Test,
						landscape.Options{Resolution: scanRes, Radius: 0.5, Seed: seed, MaxSamples: 256, Workers: w})
				}
				return err
			},
			under: (*GridResult).renderScans},
		"best": {heads: []string{"Best acc"}, vals: func(c GridCell) []string {
			return []string{acc(c.History().BestAcc())}
		}},
		"convergence": {heads: []string{"best", "r@40%"}, vals: func(c GridCell) []string {
			return []string{acc(c.History().BestAcc()), strconv.Itoa(c.History().RoundsToAcc(0.4))}
		}},
		"curve": {},
	}
}

// gridColumns are what a table can print after its measure, by header:
// the first run's counters and the cell's own settings.
func gridColumns() map[string]func(c GridCell) string {
	return map[string]func(c GridCell) string{
		"Crashes":     func(c GridCell) string { return strconv.Itoa(c.History().Crashes) },
		"Drops":       func(c GridCell) string { return strconv.Itoa(c.History().FaultDrops) },
		"Retries":     func(c GridCell) string { return strconv.Itoa(c.History().Retries) },
		"Dups":        func(c GridCell) string { return strconv.Itoa(c.History().Duplicates) },
		"Stalls":      func(c GridCell) string { return strconv.Itoa(c.History().Stalls) },
		"Degraded":    func(c GridCell) string { return strconv.Itoa(c.History().Degraded) },
		"Unavailable": func(c GridCell) string { return strconv.Itoa(c.History().Unavailable) },
		"Stragglers":  func(c GridCell) string { return strconv.Itoa(c.History().Stragglers) },
		"Arrivals":    func(c GridCell) string { return strconv.Itoa(c.History().Comm.ModelsUp) },
		"MB on wire":  func(c GridCell) string { return megabytes(c.History().TotalBytes()) },
		"MB up":       func(c GridCell) string { return megabytes(c.History().BytesUp) },
		"K":           func(c GridCell) string { return strconv.Itoa(c.Profile.ClientsPerRound) },
	}
}

func megabytes(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }

// Grid is a declared sweep: a base cell, an ordered list of axes expanded
// row-major (the last axis varies fastest), what each cell reports and
// how the cells are laid out.
type Grid struct {
	// Title labels the sweep; RunGrid appends what the base cell runs.
	Title string
	Base  Cell
	Axes  []Axis
	// Optional names axes the grid reads but does not sweep unless Sweep
	// puts values on them; an optional axis then goes outermost.
	Optional []string
	// Measure names what a cell reports: "" is final and best accuracy on
	// the first seed, "stat" the final accuracy over every Profile.Seeds
	// entry as mean ± std, "margin" the same plus each row's FedCross −
	// FedAvg margin, "sharpness" the final model's loss sharpness and
	// accuracy over the seeds plus the same margin on sharpness, "best"
	// the best accuracy, "convergence" the best accuracy and the rounds to
	// 40 %, "curve" the evaluated learning curve.
	Measure string
	// Across names the axis laid across the page instead of down it: its
	// values become the table's column groups or, under the curve measure,
	// the curves of one panel per combination of the other axes. Empty is
	// the long table, a row per cell.
	Across string
	// Reference names an algorithm the base cell is also run under, once;
	// a curve grid draws it first in every panel.
	Reference string
	// Winner adds a column naming each row's best Across value by mean
	// final accuracy, and a line counting the rows FedCross wins.
	Winner bool
	// Columns names the gridColumns entries printed after the measure
	// (and retention) columns.
	Columns []string
	// Trajectory adds every cell's traffic-vs-accuracy curve under the
	// table.
	Trajectory bool
	// note adds the preset's own run settings to the title.
	note func(p Profile) string
}

// axis returns the index of the grid's axis name, or -1.
func (g *Grid) axis(name string) int {
	return slices.IndexFunc(g.Axes, func(a Axis) bool { return a.Name == name })
}

// Sweeps lists the axes Sweep accepts: the grid's own, then its optional
// ones.
func (g *Grid) Sweeps() []string {
	var names []string
	for _, ax := range g.Axes {
		names = append(names, ax.Name)
	}
	for _, name := range g.Optional {
		if g.axis(name) < 0 {
			names = append(names, name)
		}
	}
	return names
}

// Reads reports whether the grid reads the key: it sweeps it, or the key
// sets something the grid's cells run and no axis of the grid overwrites.
func (g *Grid) Reads(key string) bool {
	if slices.Contains(g.Sweeps(), key) {
		return true
	}
	a, err := NewAxis(key)
	if err != nil || slices.ContainsFunc(g.Axes, func(ax Axis) bool { return slices.Contains(ax.Overwrites, key) }) {
		return false
	}
	return a.Used == nil || a.Used(g)
}

// Sweep replaces the values of the grid's axis name, adding the axis
// first when it is one of the grid's optional ones.
func (g *Grid) Sweep(name string, values ...string) error {
	a := g.axis(name)
	if a < 0 && slices.Contains(g.Optional, name) {
		g.Axes = append([]Axis{mustAxis(name)}, g.Axes...)
		a = 0
	}
	if a < 0 {
		return fmt.Errorf("experiments: grid %q has no axis %q (it sweeps %v)", g.Title, name, g.Sweeps())
	}
	g.Axes[a].Values = values
	return nil
}

// Seeds returns the seeds every cell of the grid runs on: the profile's
// when the measure reads each seed's final model (finals), otherwise its
// first.
func (g *Grid) Seeds() []int64 {
	if measures()[g.Measure].finals {
		return g.Base.Profile.Seeds
	}
	return []int64{firstSeed(g.Base.Profile)}
}

// visionCell is the base most presets start from: the profile on the
// vision10 / cnn environment at Dir(beta), FedCross at the paper's
// settings.
func visionCell(p Profile, algo string, beta float64) Cell {
	return Cell{Profile: p, Dataset: "vision10", Model: "cnn", Het: data.Heterogeneity{Beta: beta},
		Algorithm: algo, FedCross: core.DefaultOptions()}
}

// gridPresets are the declared sweeps: the paper's tables, figures and
// ablations, the fidelity gate's, then the five system sweeps. Each is a
// base cell, default axis values, a measure and a layout; base settings
// a key also reaches are applied only where the profile left zero, and
// Configure puts a set key back over them.
func gridPresets() map[string]func(p Profile) Grid {
	alphas := []string{"0.5", "0.8", "0.9", "0.95", "0.99", "0.999"}
	return map[string]func(p Profile) Grid{
		// table2: the accuracy comparison, a row per dataset × model ×
		// heterogeneity and a column per method.
		"table2": func(p Profile) Grid {
			return Grid{Title: "Table II — test accuracy (%) comparison", Base: visionCell(p, "fedavg", 0.5),
				Axes: []Axis{mustAxis("dataset", "vision10"), mustAxis("model", "cnn"),
					mustAxis("beta", "0.5", "iid"), mustAxis("algo", AlgorithmNames()...)},
				Measure: "stat", Across: "algo", Winner: true}
		},
		// table3: α × collaborator strategy at β = 1.0. α = 0.999 sits inside
		// the admissible [0.5, 1) and is expected to collapse — that is the
		// point of the ablation. Like fig6 it can be swept over rounds, the
		// missing coordinate of a rounds × K × α × strategy fidelity sweep
		// (fig8 cannot: its reference run has one length).
		"table3": func(p Profile) Grid {
			return Grid{Title: "Table III — test accuracy (%) by alpha and selection strategy", Base: visionCell(p, "fedcross", 1.0),
				Axes: []Axis{mustAxis("alpha", alphas...),
					mustAxis("strategy", "in-order", "highest-similarity", "lowest-similarity")},
				Optional: []string{"rounds"}, Measure: "stat", Across: "strategy"}
		},
		// fidelity: the claim the reproduction must keep supporting —
		// FedCross ahead of FedAvg under non-IID data — as each
		// heterogeneity row's margin over at least five seeds (the
		// profile's own when it carries more). The preset scores on at
		// least 100 test samples per class, so one sample moves a cell by
		// 0.1 %, not the 1 % of tiny's 10. Sweep rounds to find the
		// crossover: FedCross trails early and leads once it has run long
		// enough (README, "Fidelity notes").
		"fidelity": func(p Profile) Grid {
			p.VisionTestPerClass = max(p.VisionTestPerClass, 100)
			if len(p.Seeds) < 5 {
				p.Seeds = []int64{1, 2, 3, 4, 5}
			}
			return Grid{Title: "Fidelity — final accuracy (%), FedCross against FedAvg", Base: visionCell(p, "fedavg", 0.5),
				Axes:     []Axis{mustAxis("beta", "0.1", "0.5", "iid"), mustAxis("algo", "fedavg", "fedcross")},
				Optional: []string{"rounds"}, Measure: "margin", Across: "algo"}
		},
		// fig4: RQ1's flatness, FedAvg against FedCross on ResNetMini at
		// β = 0.1 and IID — each seed's final global model's sharpness
		// (lower is flatter), and the first seed's loss surfaces under the
		// table. Sharpness grows with training, so sweep rounds to compare
		// equally trained models.
		"fig4": func(p Profile) Grid {
			base := visionCell(p, "fedavg", 0.1)
			base.Model = "resnet"
			return Grid{Title: "Figure 4 — loss-landscape sharpness (lower = flatter)", Base: base,
				Axes:     []Axis{mustAxis("beta", "0.1", "iid"), mustAxis("algo", "fedavg", "fedcross")},
				Optional: []string{"rounds"}, Measure: "sharpness", Across: "algo"}
		},
		// fig5: every method's learning curve, a panel per model ×
		// heterogeneity.
		"fig5": func(p Profile) Grid {
			return Grid{Title: "Figure 5 — learning curves", Base: visionCell(p, "fedavg", 0.5),
				Axes:    []Axis{mustAxis("model", "cnn"), mustAxis("beta", "0.5", "iid"), mustAxis("algo", AlgorithmNames()...)},
				Measure: "curve", Across: "algo"}
		},
		// fig6: activated clients K at β = 0.1. K only changes the round
		// configuration, so every cell shares one environment build.
		"fig6": func(p Profile) Grid {
			return Grid{Title: "Figure 6 — best accuracy vs activated clients K", Base: visionCell(p, "fedavg", 0.1),
				Axes:     []Axis{mustAxis("k", "2", "4", "8"), mustAxis("algo", "fedavg", "fedcross")},
				Optional: []string{"rounds"}, Measure: "best", Across: "algo"}
		},
		// fig7: population N under 10% participation with the corpus fixed
		// at 300 samples, so more clients means less data each. K follows
		// N: a tenth of the clients per round, at least 2 and at most 100
		// (10% of 10⁶ would be 10⁵ concurrent middleware models).
		"fig7": func(p Profile) Grid {
			p.VisionTrainPerClass = 30
			n := mustAxis("n", "10", "20", "40")
			setN := n.Set
			n.Set, n.Overwrites = func(c *Cell, v string) error {
				err := setN(c, v)
				c.Profile.ClientsPerRound = min(max(2, c.Profile.NumClients/10), 100, c.Profile.NumClients)
				return err
			}, []string{"k"}
			return Grid{Title: "Figure 7 — accuracy vs total clients N (10% participation, fixed data budget)", Base: visionCell(p, "fedavg", 0.5),
				Axes:    []Axis{n, mustAxis("algo", "fedavg", "fedcross")},
				Measure: "convergence", Across: "algo", Columns: []string{"K"}}
		},
		// fig8: learning curves per α at β = 1.0, a panel per strategy,
		// against one FedAvg run.
		"fig8": func(p Profile) Grid {
			return Grid{Title: "Figure 8 — alpha sweep", Base: visionCell(p, "fedcross", 1.0),
				Axes:    []Axis{mustAxis("strategy", "in-order", "lowest-similarity"), mustAxis("alpha", alphas...)},
				Measure: "curve", Across: "alpha", Reference: "fedavg"}
		},
		// fig9: the acceleration variants over a 4-round window with two
		// propellers.
		"fig9": func(p Profile) Grid {
			base := visionCell(p, "fedcross", 0.1)
			base.FedCross.AccelRounds, base.FedCross.PropellerCount = 4, 2
			return Grid{Title: "Figure 9 — acceleration methods", Base: base,
				Axes:    []Axis{mustAxis("beta", "0.1", "iid"), mustAxis("accel", "vanilla", "pm", "da", "pm-da")},
				Measure: "curve", Across: "accel"}
		},
		// The ablations quantify three design choices beyond Table III:
		// Algorithm 1's shuffle (line 5), which the paper argues gives every
		// middleware model an even chance of visiting every client; the
		// similarity measure behind lowest-similarity selection (the paper's
		// printed formula divides by the sum of the norms, not their
		// product); and the propeller fan-in of the PM acceleration, run
		// over the first half of the rounds.
		"ablation-shuffle": func(p Profile) Grid {
			return Grid{Title: "Ablation — shuffle dispatching (Algorithm 1, line 5)", Base: visionCell(p, "fedcross", 0.5),
				Axes: []Axis{mustAxis("shuffle", "on", "off")}, Measure: "stat"}
		},
		"ablation-similarity": func(p Profile) Grid {
			return Grid{Title: "Ablation — similarity measure behind lowest-similarity selection", Base: visionCell(p, "fedcross", 0.5),
				Axes: []Axis{mustAxis("similarity", "cosine", "paper", "euclidean")}, Measure: "stat"}
		},
		"ablation-propellers": func(p Profile) Grid {
			base := visionCell(p, "fedcross", 0.5)
			base.FedCross.Accel, base.FedCross.AccelRounds = core.AccelPropeller, max(1, p.Rounds/2)
			return Grid{Title: "Ablation — propeller-model fan-in (PM acceleration)", Base: base,
				Axes: []Axis{mustAxis("propellers", "1", "2", "3")}, Measure: "stat"}
		},
		// comm: one algorithm per wire codec on identical environments, so
		// the only difference between rows is what the transport does to the
		// payloads — accuracy per megabyte moved.
		"comm": func(p Profile) Grid {
			return Grid{Title: "Comm-vs-accuracy", Base: visionCell(p, "fedcross", 0.5),
				Axes:    []Axis{mustAxis("codec", "identity", "fp16", "int8", "topk")},
				Columns: []string{"MB on wire", "Stragglers"}, Trajectory: true, note: netNote}
		},
		// robust: attacker fraction × aggregation rule, each reducer's
		// retention measured against its own benign run.
		"robust": func(p Profile) Grid {
			if p.Attack == "" || p.Attack == fl.AttackNone {
				p.Attack = fl.AttackSignFlip
			}
			return Grid{Title: "Byzantine robustness", Base: visionCell(p, "fedavg", 0.5),
				Axes: []Axis{mustAxis("frac", "0", "0.2"),
					mustAxis("reducer", "mean", "trimmed", "median", "krum", "multikrum")},
				note: func(p Profile) string { return "attack=" + p.Attack }}
		},
		// async: the buffered-async engine over commit buffer size ×
		// in-flight concurrency (default K and 2K).
		"async": func(p Profile) Grid {
			k := cmp.Or(p.ClientsPerRound, 4)
			base := visionCell(p, "", 0.5)
			base.Async = &fl.AsyncOptions{}
			return Grid{Title: "Buffered-async", Base: base,
				Axes: []Axis{mustAxis("buffer", "1", "4", "8"),
					mustAxis("inflight", strconv.Itoa(k), strconv.Itoa(2*k))},
				Columns: []string{"Arrivals", "MB up"}, note: netNote}
		},
		// faults: increasing fault intensity with a quorum floor and upload
		// retries engaged; level 0 is the bit-identical benign baseline.
		"faults": func(p Profile) Grid {
			p.MinUploads = cmp.Or(p.MinUploads, max(1, p.ClientsPerRound/2))
			p.Retries = cmp.Or(p.Retries, 2)
			p.RetryBackoffSec = cmp.Or(p.RetryBackoffSec, 0.05)
			return Grid{Title: "Fault injection", Base: visionCell(p, "fedavg", 0.5),
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
			return Grid{Title: "Availability churn", Base: visionCell(p, "fedavg", 0.5),
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

// GridPreset returns the named sweep over the profile: the paper's
// table2, table3, fig4 … fig9 and ablation-shuffle / -similarity /
// -propellers, the fidelity gate's sweep, or the system sweeps comm,
// robust, async, faults, churn.
func GridPreset(name string, p Profile) (Grid, error) {
	mk, ok := gridPresets()[name]
	if !ok {
		return Grid{}, fmt.Errorf("experiments: unknown grid preset %q (want one of %v)", name, slices.Sorted(maps.Keys(gridPresets())))
	}
	return mk(p), nil
}

// Configure returns the named preset over the profile with sweeps put on
// the axes it declares and each setting applied, in the axis table's
// order whatever order they came in. A setting on an axis the grid sweeps
// narrows it to that one value, as a one-value Sweep does. Any other key
// the grid reads is set on the base cell in two passes: first on the
// profile the preset is then built again from, so a default it derives —
// async's in-flight K and 2K, faults' quorum K/2 — sees the setting, then
// on that build's base, so no preset default replaces a value that was
// set. Every cell is validated before Configure returns; unread lists the
// sweeps the grid does not declare and the settings it does not read,
// which it leaves unapplied.
func Configure(name string, p Profile, sweeps map[string][]string, set map[string]string) (g Grid, unread []string, err error) {
	for pass := range 2 {
		if g, err = GridPreset(name, p); err != nil {
			return g, nil, err
		}
		unread = slices.Sorted(maps.Keys(set))
		for _, axis := range slices.Sorted(maps.Keys(sweeps)) {
			if !slices.Contains(g.Sweeps(), axis) {
				unread = append(unread, axis)
			} else if err := g.Sweep(axis, sweeps[axis]...); err != nil {
				return g, nil, err
			}
		}
		base := &g.Base
		if pass == 0 {
			probe := g.Base
			probe.Profile, base = p, &probe
		}
		for _, a := range axes() {
			v, ok := set[a.Name]
			if !ok || !g.Reads(a.Name) {
				continue
			}
			unread = slices.DeleteFunc(unread, func(k string) bool { return k == a.Name })
			if g.axis(a.Name) >= 0 {
				err = g.Sweep(a.Name, v)
			} else {
				err = a.Set(base, v)
			}
			if err != nil {
				return g, unread, fmt.Errorf("experiments: %s=%s: %w", a.Name, v, err)
			}
		}
		p = base.Profile
	}
	_, err = g.cells()
	return g, unread, err
}

// GridCell is one cell of a grid that has run: the value it took on each
// axis, the cell those values resolved to, and one history per seed of
// Grid.Seeds.
type GridCell struct {
	Coords []string
	Cell
	Histories []*fl.History
	// Diverged holds per seed the round of the evaluation that found the
	// run's global model outside the finite range (fl.DivergedError), 0
	// where the run finished: under a finals measure that is the last
	// round, the one evaluation it makes. A diverged seed has no history.
	Diverged []int
	// Sharpness holds the sharpness measure's reading of each seed's final
	// model, and Scan its 2-D loss scan around the first seed's.
	Sharpness []float64
	Scan      *landscape.Grid
}

// History is the run on the grid's first seed.
func (c GridCell) History() *fl.History { return c.Histories[0] }

// diverged reports whether the run on seed index si diverged.
func (c GridCell) diverged(si int) bool { return si < len(c.Diverged) && c.Diverged[si] > 0 }

// Stat summarises the final accuracy over the seeds the cell ran on.
func (c GridCell) Stat() Stat {
	finals := make([]float64, len(c.Histories))
	for i, h := range c.Histories {
		finals[i] = h.Final().TestAcc
	}
	return NewStat(finals)
}

// marginStat is FedCross's lead over a baseline on cells run on the same
// seeds, on one per-seed value: the difference of their means and the
// pooled seed std over the seeds where both runs finished, and on how many
// of all the seeds FedCross was strictly ahead.
type marginStat struct {
	Mean, Std   float64
	Wins, Seeds int
}

// String renders an accuracy margin in points, signed.
func (m marginStat) String() string { return fmt.Sprintf("%+.2f ± %.2f", 100*m.Mean, 100*m.Std) }

// rowMargin compares the row's fedcross cell with its baseline cell on x,
// the value of a cell's run on seed index si, seed by seed: FedCross is
// ahead on a seed where its x is higher, or lower when lower is set. A
// run that diverged has no x and finishes behind one that did not: a seed
// where only the baseline diverged is a FedCross win, one where FedCross
// diverged is not, and neither enters the mean. ok is false when the row
// lacks either cell.
func rowMargin(cells []GridCell, baseline string, x func(c GridCell, si int) float64, lower bool) (m marginStat, ok bool) {
	i := slices.IndexFunc(cells, func(c GridCell) bool { return c.Algorithm == "fedcross" })
	j := slices.IndexFunc(cells, func(c GridCell) bool { return c.Algorithm == baseline })
	if i < 0 || j < 0 {
		return marginStat{}, false
	}
	fc, fb := cells[i], cells[j]
	var xc, xb []float64
	for si := range fc.Histories {
		if fc.diverged(si) || fb.diverged(si) {
			if !fc.diverged(si) {
				m.Wins++
			}
			continue
		}
		c, b := x(fc, si), x(fb, si)
		xc, xb = append(xc, c), append(xb, b)
		if lower && c < b || !lower && c > b {
			m.Wins++
		}
	}
	a, b := NewStat(xc), NewStat(xb)
	m.Mean, m.Std, m.Seeds = a.Mean-b.Mean, math.Sqrt((a.Std*a.Std+b.Std*b.Std)/2), len(fc.Histories)
	return m, true
}

// GridResult is a grid that has run: Title now says what the base cell
// ran, Cells holds the distinct cells row-major over Axes, and Reference
// the grid's reference run when it declares one.
type GridResult struct {
	Grid
	Cells     []GridCell
	Reference *GridCell
}

// RunGrid expands the axes into cells and runs them through the
// scheduler on Grid.Seeds: one shared worker budget, memoized
// environments, first failure by cell index. Each run's history is a pure
// function of its seed and settings, so the result is bit-identical at
// every Jobs/Parallelism setting. Under a finals measure each run cell's
// Profile.EvalEvery is 0: nothing reads a round before the last, and
// evaluation draws no randomness, so the final model and metric are those
// the profile's schedule reaches.
//
// A run whose global model diverges (fl.DivergedError) does not stop the
// grid: its cell records the round in Diverged and keeps no history for
// that seed. When every run has ended and nothing else failed, RunGrid
// returns the result together with an error naming each diverged run; a
// caller that renders every seed fails on that error, and the claims
// ledger scores the result (see rowMargin).
func RunGrid(g Grid) (*GridResult, error) {
	cells, err := g.cells()
	if err != nil {
		return nil, err
	}
	res := &GridResult{Grid: g, Cells: cells}
	res.Title = g.title()
	seeds := g.Seeds()
	runs := make([]*GridCell, len(res.Cells), len(res.Cells)+1)
	for i := range res.Cells {
		runs[i] = &res.Cells[i]
	}
	if g.Reference != "" {
		res.Reference = &GridCell{Cell: g.Base}
		res.Reference.Algorithm = g.Reference
		runs = append(runs, res.Reference)
	}
	m := measures()[g.Measure]
	for _, c := range runs {
		c.Histories, c.Diverged = make([]*fl.History, len(seeds)), make([]int, len(seeds))
		if m.finals {
			c.Profile.EvalEvery = 0
		}
		if m.probe != nil {
			c.Sharpness = make([]float64, len(seeds))
		}
	}
	s := newScheduler(g.Base.Profile)
	diverged := make([]error, len(runs)*len(seeds))
	err = s.Run(len(runs)*len(seeds), func(i int) error {
		c, si := runs[i/len(seeds)], i%len(seeds)
		hist, env, global, err := c.run(s, seeds[si])
		if err == nil && m.probe != nil {
			err = m.probe(c, si, seeds[si], env, global, s.Config(c.Profile, seeds[si]).Allowance())
		}
		if err != nil {
			name := strings.Join(res.labels(*c), " ")
			if c == res.Reference {
				name = "reference " + c.Algorithm
			}
			err = fmt.Errorf("experiments: grid cell %s, seed %d: %w", name, seeds[si], err)
			if d := (*fl.DivergedError)(nil); errors.As(err, &d) {
				c.Diverged[si], diverged[i] = d.Round, err
				return nil
			}
			return err
		}
		c.Histories[si] = hist
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, errors.Join(diverged...)
}

// cells expands the axes into the grid's distinct cells, validating the
// grid and every cell before anything runs: each axis value is applied —
// and so checked — and each cell's run configuration validated. Each cell
// is then resolved, and a cell equal to an earlier one is dropped, so a
// coordinate its dataset ignores does not repeat the row.
func (g *Grid) cells() ([]GridCell, error) {
	n := 1
	for _, ax := range g.Axes {
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("experiments: grid axis %q has no values", ax.Name)
		}
		n *= len(ax.Values)
	}
	columns := gridColumns()
	for _, name := range g.Columns {
		if columns[name] == nil {
			return nil, fmt.Errorf("experiments: unknown grid column %q", name)
		}
	}
	if m, ok := measures()[g.Measure]; !ok {
		return nil, fmt.Errorf("experiments: unknown grid measure %q", g.Measure)
	} else if m.probe != nil && g.Base.Async != nil {
		return nil, fmt.Errorf("experiments: grid %q: measure %q reads a trained model, which an async cell does not return", g.Title, g.Measure)
	}
	if (g.Across != "" || g.Measure == "curve" || g.Winner) && g.axis(g.Across) < 0 {
		return nil, fmt.Errorf("experiments: grid %q lays out axis %q, which it does not sweep", g.Title, g.Across)
	}
	if len(g.Seeds()) == 0 {
		return nil, fmt.Errorf("experiments: grid %q reports over Profile.Seeds, which is empty", g.Title)
	}
	var cells []GridCell
	for i := range n {
		gc := GridCell{Cell: g.Base, Coords: make([]string, len(g.Axes))}
		if g.Base.Async != nil {
			ao := *g.Base.Async
			gc.Async = &ao
		}
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
		if err := gc.Profile.Config(0).Validate(); err != nil {
			return nil, fmt.Errorf("experiments: grid cell %s: %w", strings.Join(gc.Coords, " "), err)
		}
		gc.resolve()
		for a, ax := range g.Axes {
			if ax.Read != nil {
				gc.Coords[a] = ax.Read(gc.Cell)
			}
		}
		if !slices.ContainsFunc(cells, func(o GridCell) bool { return slices.Equal(o.Coords, gc.Coords) }) {
			cells = append(cells, gc)
		}
	}
	return cells, nil
}

// title appends what every cell shares to the grid's title: the base
// cell's algorithm, dataset and model, less whichever an axis sweeps.
func (g *Grid) title() string {
	title := g.Title
	if g.axis("algo") < 0 {
		title += " — " + cmp.Or(g.Base.Algorithm, "fedbuff") // async cells name no algorithm
	}
	var on []string
	if g.axis("dataset") < 0 {
		on = append(on, g.Base.Dataset)
	}
	if g.axis("model") < 0 {
		on = append(on, g.Base.Model)
	}
	if len(on) > 0 {
		title += " on " + strings.Join(on, "/")
	}
	if g.note != nil {
		title += ", " + g.note(g.Base.Profile)
	}
	return title
}

// labels renders a cell's coordinates the way their columns print them.
func (r *GridResult) labels(c GridCell) []string {
	out := make([]string, len(c.Coords))
	for a, v := range c.Coords {
		out[a] = r.Axes[a].label(v)
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
		if acc := r.Cells[b].History().Final().TestAcc; acc > 0 {
			return r.Cells[i].History().Final().TestAcc / acc
		}
	}
	return -1
}

// groups splits the cells by every coordinate but the Across axis's: one
// group of cell indexes per distinct rest, in order of first appearance —
// the rows of a table, the panels of a curve figure. With no Across axis
// (across = -1) every cell is its own group.
func (r *GridResult) groups() (across int, groups [][]int) {
	across = r.axis(r.Across)
	at := map[string]int{}
	for i, c := range r.Cells {
		rest := slices.Clone(c.Coords)
		if across >= 0 {
			rest[across] = ""
		}
		key := strings.Join(rest, "\x00")
		g, ok := at[key]
		if !ok {
			g, at[key] = len(groups), len(groups)
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return across, groups
}

// groupLabels renders what a group's cells share: cell i's labels without
// the Across axis's.
func (r *GridResult) groupLabels(i, across int) []string {
	labels := r.labels(r.Cells[i])
	if across >= 0 {
		labels = slices.Delete(labels, across, across+1)
	}
	return labels
}

// Render writes the grid the way it declares: a curve grid as one series
// per panel, every other measure as one table.
func (r *GridResult) Render(w io.Writer) error {
	if r.Measure == "curve" {
		return r.renderCurves(w)
	}
	return r.renderTable(w)
}

// renderTable writes a column per axis, then the measure's columns — and
// retention against the baseline cell when an axis declares one — once
// per value of the Across axis (once in all without one), the counter
// columns and the winner, followed by the per-cell trajectories when the
// grid asks for them.
func (r *GridResult) renderTable(w io.Writer) error {
	m := measures()[r.Measure]
	across, rows := r.groups()
	heads := m.heads
	retention := slices.ContainsFunc(r.Axes, func(a Axis) bool { return a.Baseline != "" })
	if retention {
		heads = append(slices.Clip(heads), "Retention")
	}
	values := []string{""} // the Across axis's values, in order of appearance
	if across >= 0 {
		values = nil
		for _, c := range r.Cells {
			if !slices.Contains(values, c.Coords[across]) {
				values = append(values, c.Coords[across])
			}
		}
	}
	t := Table{Title: r.Title}
	for a, ax := range r.Axes {
		if a != across {
			t.Header = append(t.Header, ax.Header)
		}
	}
	for _, v := range values {
		for _, h := range heads {
			switch {
			case across < 0:
			case len(heads) == 1:
				h = r.Axes[across].label(v)
			default:
				h = r.Axes[across].label(v) + " " + h
			}
			t.Header = append(t.Header, h)
		}
	}
	t.Header = append(t.Header, m.rowHeads...)
	t.Header = append(t.Header, r.Columns...)
	if r.Winner {
		t.Header = append(t.Header, "winner")
	}
	columns := gridColumns()
	fedcross := func(i int) bool { return r.Cells[i].Algorithm == "fedcross" }
	wins, contested := 0, 0
	for _, group := range rows {
		row := r.groupLabels(group[0], across)
		for _, v := range values {
			at := 0
			if across >= 0 {
				at = slices.IndexFunc(group, func(i int) bool { return r.Cells[i].Coords[across] == v })
			}
			if at < 0 {
				row = append(row, slices.Repeat([]string{"-"}, len(heads))...)
				continue
			}
			i := group[at]
			row = append(row, m.vals(r.Cells[i])...)
			if retention {
				ret := "-"
				if v := r.Retention(i); v >= 0 && r.baseline(i) != i {
					ret = fmt.Sprintf("%.3f", v)
				}
				row = append(row, ret)
			}
		}
		if m.row != nil {
			cells := make([]GridCell, len(group))
			for j, i := range group {
				cells[j] = r.Cells[i]
			}
			row = append(row, m.row(cells)...)
		}
		for _, name := range r.Columns {
			row = append(row, columns[name](r.Cells[group[0]]))
		}
		if r.Winner {
			// The first of equal means wins, as the axis orders them.
			best := slices.MaxFunc(group, func(i, j int) int {
				return cmp.Compare(r.Cells[i].Stat().Mean, r.Cells[j].Stat().Mean)
			})
			row = append(row, r.Axes[across].label(r.Cells[best].Coords[across]))
			if slices.ContainsFunc(group, fedcross) {
				contested++
			}
			if fedcross(best) {
				wins++
			}
		}
		t.Add(row...)
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	if r.Winner {
		if _, err := fmt.Fprintf(w, "FedCross wins %d of %d cells\n", wins, contested); err != nil {
			return err
		}
	}
	if m.under != nil {
		if err := m.under(r, w); err != nil {
			return err
		}
	}
	if !r.Trajectory {
		return nil
	}
	for _, c := range r.Cells {
		ct := Table{
			Title:  fmt.Sprintf("\n%s trajectory", strings.Join(r.labels(c), " ")),
			Header: []string{"Round", "Cum MB", "Acc"},
		}
		for _, m := range c.History().Metrics {
			ct.Add(strconv.Itoa(m.Round), megabytes(m.CumBytesDown+m.CumBytesUp), fmt.Sprintf("%.4f", m.TestAcc))
		}
		if _, err := ct.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}

// renderScans writes each row's first-seed 2-D loss scans in plot-ready
// columns: a comment naming the row, then x, y and each cell's loss at
// that offset, tab-separated.
func (r *GridResult) renderScans(w io.Writer) error {
	across, rows := r.groups()
	for _, group := range rows {
		var b strings.Builder
		fmt.Fprintf(&b, "\n# %s: loss around seed %d's final models\nx\ty", strings.Join(r.groupLabels(group[0], across), " "), r.Seeds()[0])
		for _, i := range group {
			b.WriteString("\tloss_" + r.Cells[i].Algorithm)
		}
		scan := r.Cells[group[0]].Scan
		for a, x := range scan.Xs {
			for c, y := range scan.Ys {
				fmt.Fprintf(&b, "\n%.4f\t%.4f", x, y)
				for _, i := range group {
					fmt.Fprintf(&b, "\t%.6f", r.Cells[i].Scan.Loss[a][c])
				}
			}
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// renderCurves writes one series per panel — a combination of the axes
// other than Across — with a curve per Across value, the reference run
// first.
func (r *GridResult) renderCurves(w io.Writer) error {
	across, panels := r.groups()
	for _, panel := range panels {
		s := Series{Title: r.Title, XLabel: "round", Curves: map[string][]float64{}}
		if labels := r.groupLabels(panel[0], across); len(labels) > 0 {
			s.Title += ", " + strings.Join(labels, " ")
		}
		draw := func(name string, c GridCell) {
			s.Order = append(s.Order, name)
			for _, m := range c.History().Metrics {
				if len(s.Order) == 1 {
					s.Xs = append(s.Xs, m.Round)
				}
				s.Curves[name] = append(s.Curves[name], m.TestAcc)
			}
		}
		if r.Reference != nil {
			draw(r.Reference.Algorithm, *r.Reference)
		}
		for _, i := range panel {
			draw(r.Axes[across].label(r.Cells[i].Coords[across]), r.Cells[i])
		}
		if _, err := s.WriteTo(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
