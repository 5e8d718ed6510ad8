// Command fedsim runs the FedCross reproduction experiments: every table
// and figure of the paper's evaluation, at a selectable scale.
//
// Usage:
//
//	fedsim -experiment table1                 # communication analysis
//	fedsim -experiment table2 -profile tiny   # accuracy grid slice
//	fedsim -experiment fig4 -seeds 5 -grid rounds=8,50,200
//	fedsim -experiment fig5 -profile small -grid model=cnn,resnet
//	fedsim -experiment all -profile tiny -jobs 1 -parallel 1   # same results, serially
//	fedsim -experiment table2 -set codec=fp16 -set net=lte -set deadline=30
//	fedsim -experiment robust -set attack=signflip -grid frac=0,0.2 -grid reducer=mean,krum
//	fedsim -experiment fig7 -grid n=1000000 -rsslimitmb 2048
//	fedsim -experiment faults -grid level=0,0.05,0.1 -set quorum=2 -set retries=2
//	fedsim -experiment fidelity -set codec=int8
//	fedsim -experiment table2 -grid algo=fedcross -grid beta=0.5 -checkpoint run.ckpt -stopafter 4   # kill …
//	fedsim -experiment table2 -grid algo=fedcross -grid beta=0.5 -checkpoint run.ckpt -resume        # … resume
//
// Profiles: tiny (seconds), small (minutes), paper (the scaled
// paper-shaped setup; hours for the full grid). Every experiment grid
// runs its (dataset, model, heterogeneity, algorithm, seed) cells
// concurrently through the experiment scheduler: -jobs caps how many
// cells are in flight, client-local training inside each cell fans out
// under -parallel, and both levels lease goroutines from one global
// worker budget so no combination oversubscribes the machine. Neither
// flag changes any result (randomness is pre-split per client, and cells
// are independent).
//
// Cells: the flags describe the run. Every setting of a cell is a key of
// the axis table (experiments.AxisNames; README has each key's values):
// the repeatable -set key=value sets one value on every experiment about
// to run that reads the key, and the repeatable -grid key=v1,v2 sweeps an
// axis an experiment declares (README lists them). -set on a swept axis
// narrows it to one value; anywhere else it sets the base cell, before
// the preset takes its own defaults (async's in-flight K and 2K, faults'
// quorum K/2), in the table's order rather than the command line's. A
// key nothing about to run reads, an axis the experiment does not sweep,
// a key both set and swept, or -seeds where nothing reports over seeds
// is a usage error naming what is read, and every cell is validated
// before anything runs. A removed per-setting flag (-rounds, -k, -codec,
// …) fails naming its -set key.
//
// Checkpoints: -checkpoint writes write-ahead round snapshots
// (-checkpointevery n rounds, -stopafter simulates a kill at a round
// boundary) and -resume continues a killed run to a byte-identical final
// history. A checkpoint holds one run, so the command must make exactly
// one: one experiment, one cell, one seed. That every algorithm resumes
// byte-identically is checked by
//
//	go test -count=1 -run 'TestRelations/resume/' ./internal/experiments/
//
// Scale: populations at or above the lazy cutoff synthesize shards on
// demand from the partition seed, so N=10^6 holds only the LRU working
// set resident; -rsslimitmb makes the run fail if peak RSS (VmHWM)
// exceeds the ceiling — the memory-boundedness gate CI relies on.
//
// Profiles: -cpuprofile file records a CPU profile of everything after
// flag parsing and -memprofile file a heap profile taken as the command
// ends (both runtime/pprof, read with go tool pprof); neither changes a
// byte of the output.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"fedcross/internal/data"
	"fedcross/internal/experiments"
	"fedcross/internal/fl"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "fedsim:", err)
		os.Exit(1)
	}
}

// keyFlag collects a repeatable key=value flag: -set keeps each value
// whole (a fault spec has commas of its own), -grid splits it at commas.
type keyFlag map[string]string

func (f keyFlag) String() string { return "" }

func (f keyFlag) Set(arg string) error {
	key, val, ok := strings.Cut(arg, "=")
	key, val = strings.TrimSpace(key), strings.TrimSpace(val)
	switch _, dup := f[key]; {
	case !ok || key == "" || val == "":
		return fmt.Errorf("want key=value, got %q", arg)
	case dup:
		return fmt.Errorf("key %q named twice", key)
	}
	f[key] = val
	return nil
}

// removed maps each per-setting flag fedsim used to have to the key that
// replaced it.
var removed = map[string]string{
	"rounds": "rounds", "clients": "n", "k": "k", "codec": "codec", "net": "net",
	"deadline": "deadline", "reducer": "reducer", "attack": "attack", "attackfrac": "frac",
	"attackscale": "attackscale", "staleexp": "staleexp", "faults": "faults", "quorum": "quorum",
	"retries": "retries", "retrybackoff": "retrybackoff", "churn": "churn", "prefetch": "prefetch",
}

// ownAxes declares what the experiments that keep their own code read:
// the keys -set reaches them through, and the axis fig3 sweeps. Neither
// trains a model. Every other experiment is one or more grid presets,
// which declare their own.
var ownAxes = map[string]struct{ sweeps, reads []string }{
	"table1": {reads: []string{"k"}},
	"fig3":   {sweeps: []string{"beta"}, reads: []string{"n"}},
}

// allExperiments is what -experiment all runs, in order (fidelity is a
// gate and runs only by name).
var allExperiments = []string{"table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "comm", "robust", "async", "ablations", "faults", "churn"}

// options are fedsim's flags as parsed, before anything is checked.
type options struct {
	experiment, profile    string
	grid, set              keyFlag
	seeds, parallel, jobs  int
	rssLimitMB             int
	checkpoint             fl.CheckpointOptions
	cpuProfile, memProfile string
}

// newFlagSet declares fedsim's flags: what to run and how, never a
// setting of the cell (that is -set).
func newFlagSet() (*flag.FlagSet, *options) {
	o := &options{grid: keyFlag{}, set: keyFlag{}}
	fs := flag.NewFlagSet("fedsim", flag.ContinueOnError)
	fs.StringVar(&o.experiment, "experiment", "table1", "experiment to run: "+strings.Join(allExperiments, ", ")+", fidelity, all")
	fs.StringVar(&o.profile, "profile", "tiny", "run scale: tiny, small, paper")
	fs.Var(o.grid, "grid", "sweep an axis the experiment declares, `key=v1,v2` (repeatable; README lists each experiment's)")
	fs.Var(o.set, "set", "set one value of a key on every experiment about to run that reads it, `key=value` (repeatable; keys: "+strings.Join(experiments.AxisNames(), ", ")+")")
	fs.IntVar(&o.seeds, "seeds", 0, "override the number of seeds (0 keeps profile default); read by table2, table3, fig4, ablations and fidelity (which runs at least five)")
	fs.IntVar(&o.parallel, "parallel", 0, "worker goroutines for client training/eval (0 = all cores, 1 = serial; results are identical)")
	fs.IntVar(&o.jobs, "jobs", 0, "concurrent experiment grid cells (0 = all cores, 1 = sequential; results are identical)")
	fs.StringVar(&o.checkpoint.Path, "checkpoint", "", "round-snapshot file for crash-safe runs (empty = no checkpointing); the command must make one run, e.g. table2 with -grid algo=<one> -grid beta=<one>")
	fs.IntVar(&o.checkpoint.Every, "checkpointevery", 0, "write a snapshot every n completed rounds (0 = only at -stopafter)")
	fs.BoolVar(&o.checkpoint.Resume, "resume", false, "resume from the -checkpoint snapshot instead of starting at round 0")
	fs.IntVar(&o.checkpoint.StopAfterRound, "stopafter", 0, "halt after this round completes, writing a snapshot (simulated kill; 0 = run to completion)")
	fs.IntVar(&o.rssLimitMB, "rsslimitmb", 0, "fail if peak RSS exceeds this many MiB (0 = no gate)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the whole command to this `file` (go tool pprof)")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this `file` when the command ends")
	return fs, o
}

// parse reads the command line; a removed per-setting flag fails naming
// the key that replaced it.
func parse(args []string) (*options, error) {
	for i, arg := range args {
		name, val, hasVal := strings.Cut(strings.TrimLeft(arg, "-"), "=")
		if key, ok := removed[name]; ok && strings.HasPrefix(arg, "-") {
			if !hasVal && i+1 < len(args) {
				val = args[i+1]
			}
			return nil, fmt.Errorf("-%s is gone: use -set %s=%s", name, key, cmp.Or(val, "…"))
		}
	}
	fs, o := newFlagSet()
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return o, nil
}

// plan is a command that has been checked: every experiment to run with
// its grids or its one cell, nothing left that the command line can fail.
type plan struct {
	*options
	names []string
	grids map[string][]experiments.Grid
	cells map[string]experiments.Cell // the own-code experiments'
	hets  []data.Heterogeneity        // fig3's panels (default: Dir(0.1), Dir(0.5), Dir(1.0))
}

// resolve checks the options and builds the plan: every key set or swept
// must be read by an experiment about to run, and every cell is
// validated, before anything runs.
func (o *options) resolve() (*plan, error) {
	mk, ok := map[string]func() experiments.Profile{"tiny": experiments.TinyProfile, "small": experiments.SmallProfile, "paper": experiments.PaperProfile}[o.profile]
	if !ok {
		return nil, fmt.Errorf("unknown profile %q (want tiny, small or paper)", o.profile)
	}
	prof := mk()
	for _, f := range []struct {
		name string
		v    int
	}{{"-seeds", o.seeds}, {"-parallel", o.parallel}, {"-jobs", o.jobs}, {"-rsslimitmb", o.rssLimitMB}} {
		if f.v < 0 {
			return nil, fmt.Errorf("%s %d must be non-negative", f.name, f.v)
		}
	}
	prof.Parallelism, prof.Jobs, prof.Checkpoint = o.parallel, o.jobs, o.checkpoint
	if err := prof.Checkpoint.Validate(); err != nil {
		return nil, err
	}
	if o.seeds > 0 {
		prof.Seeds = prof.Seeds[:0]
		for s := 1; s <= o.seeds; s++ {
			prof.Seeds = append(prof.Seeds, int64(s))
		}
	}
	grid := map[string][]string{}
	for key, vals := range o.grid {
		if _, ok := o.set[key]; ok {
			return nil, fmt.Errorf("-set %s and -grid %s: a key is set or swept, not both", key, key)
		}
		grid[key] = strings.Split(vals, ",")
	}

	p := &plan{options: o, names: []string{o.experiment}, grids: map[string][]experiments.Grid{}, cells: map[string]experiments.Cell{}}
	switch {
	case o.experiment == "all":
		p.names = allExperiments
	case o.experiment != "fidelity" && !slices.Contains(allExperiments, o.experiment):
		return nil, fmt.Errorf("unknown experiment %q (want %s, fidelity or all)", o.experiment, strings.Join(allExperiments, ", "))
	}
	// What the experiments about to run sweep and read, and which of the
	// command line's keys one of them took.
	sweeps, reads, taken := map[string]bool{}, map[string]bool{}, map[string]bool{}
	keys := slices.Concat(slices.Collect(maps.Keys(o.grid)), slices.Collect(maps.Keys(o.set)))
	seedsRead := false
	for _, name := range p.names {
		if own, ok := ownAxes[name]; ok {
			cell := experiments.Cell{Profile: prof}
			for _, key := range own.sweeps {
				_, ok := o.grid[key]
				sweeps[key], taken[key] = true, taken[key] || ok
			}
			set := map[string]string{}
			for _, key := range append(own.sweeps, own.reads...) {
				reads[key] = true
				if v, ok := o.set[key]; ok {
					set[key], taken[key] = v, true
				}
			}
			if err := cell.Apply(set); err != nil {
				return nil, err
			}
			if err := cell.Profile.Config(0).Validate(); err != nil {
				return nil, err
			}
			p.cells[name] = cell
			continue
		}
		presets := []string{name}
		if name == "ablations" {
			presets = []string{"ablation-shuffle", "ablation-similarity", "ablation-propellers"}
		}
		for _, preset := range presets {
			g, unread, err := experiments.Configure(preset, prof, grid, o.set)
			if err != nil {
				return nil, err
			}
			for _, key := range keys {
				taken[key] = taken[key] || !slices.Contains(unread, key)
			}
			for _, axis := range g.Sweeps() {
				sweeps[axis] = true
			}
			for _, key := range experiments.AxisNames() {
				if g.Reads(key) {
					reads[key] = true
				}
			}
			seedsRead = seedsRead || len(g.Seeds()) > 1
			p.grids[name] = append(p.grids[name], g)
		}
	}

	// A checkpoint file holds one run: every run of a larger plan would
	// write it, and a resume would continue whichever wrote last. Runs are
	// counted before a grid drops the cells its dataset makes equal.
	if o.checkpoint.Path != "" {
		runs := 0
		for _, gs := range p.grids {
			for _, g := range gs {
				cells := 1
				for _, ax := range g.Axes {
					cells *= len(ax.Values)
				}
				if g.Reference != "" {
					cells++
				}
				runs += cells * len(g.Seeds())
			}
		}
		if runs != 1 {
			return nil, fmt.Errorf("-checkpoint needs a command that makes exactly one run, and experiment %s makes %d (give every axis it sweeps one value and run one seed)", o.experiment, runs)
		}
	}

	on := func(m map[string]bool) string {
		return cmp.Or(strings.Join(slices.Sorted(maps.Keys(m)), ", "), "nothing")
	}
	for _, key := range slices.Sorted(maps.Keys(o.grid)) {
		if taken[key] {
			continue
		}
		msg := fmt.Sprintf("-grid %s=%s: experiment %s sweeps %s, not %s", key, o.grid[key], o.experiment, on(sweeps), key)
		if one := o.grid[key]; reads[key] {
			if strings.Contains(one, ",") {
				one = "<value>"
			}
			msg += fmt.Sprintf(" (set its one value with -set %s=%s)", key, one)
		}
		return nil, errors.New(msg)
	}
	var unread []string
	for _, key := range slices.Sorted(maps.Keys(o.set)) {
		if !taken[key] {
			unread = append(unread, "-set "+key)
		}
	}
	if o.seeds > 1 && !seedsRead {
		unread = append(unread, "-seeds")
	}
	if len(unread) > 0 {
		return nil, fmt.Errorf("%s: experiment %s does not read that (it reads: %s)", strings.Join(unread, ", "), o.experiment, on(reads))
	}

	// fig3's panels: -set narrows its axis as it does a preset's.
	betas := grid["beta"]
	if v, ok := o.set["beta"]; ok {
		betas = []string{v}
	}
	for _, v := range betas {
		var c experiments.Cell
		if err := c.Apply(map[string]string{"beta": v}); err != nil {
			return nil, err
		}
		p.hets = append(p.hets, c.Het)
	}
	return p, nil
}

// run is the whole command on its own flag set, so tests drive it without
// a subprocess.
func run(args []string, stdout io.Writer) (err error) {
	o, err := parse(args)
	if err != nil {
		return err
	}
	stopProfiles, err := startProfiles(o.cpuProfile, o.memProfile)
	if err != nil {
		return err
	}
	defer func() {
		// Every way out of run, usage errors included, ends the profiles.
		if perr := stopProfiles(); err == nil {
			err = perr
		}
	}()
	p, err := o.resolve()
	if err != nil {
		return err
	}
	return p.execute(stdout)
}

// execute runs the plan's experiments in order.
func (p *plan) execute(stdout io.Writer) error {
	render := func(res interface{ Render(io.Writer) error }, err error) error {
		if err != nil {
			return err
		}
		return res.Render(stdout)
	}
	runOne := func(name string) error {
		cell := p.cells[name]
		fmt.Fprintf(stdout, "=== %s (profile %s) ===\n", name, p.profile)
		switch name {
		case "table1":
			return experiments.TableI(stdout, cell.Profile.ClientsPerRound)
		case "fig3":
			return experiments.Fig3(stdout, cell.Profile, p.hets)
		default:
			// A grid preset, or the ablations' three, as resolve configured
			// them.
			for _, g := range p.grids[name] {
				if err := render(experiments.RunGrid(g)); err != nil {
					return err
				}
			}
			return nil
		}
	}

	for _, name := range p.names {
		if err := runOne(name); err != nil {
			if errors.Is(err, fl.ErrStopped) {
				fmt.Fprintf(stdout, "%s: run stopped at round %d; snapshot written to %s (continue with -resume)\n",
					name, p.checkpoint.StopAfterRound, p.checkpoint.Path)
				continue
			}
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(stdout)
	}

	if peak, ok := peakRSSMB(); ok {
		fmt.Fprintf(stdout, "peak RSS: %d MiB\n", peak)
		if p.rssLimitMB > 0 && peak > p.rssLimitMB {
			return fmt.Errorf("peak RSS %d MiB exceeds -rsslimitmb %d MiB", peak, p.rssLimitMB)
		}
	} else if p.rssLimitMB > 0 {
		return fmt.Errorf("-rsslimitmb set but peak RSS is unavailable on this platform")
	}
	return nil
}

// peakRSSMB reports the process high-water resident set size in MiB.
// Linux exposes it as VmHWM in /proc/self/status; elsewhere we fall
// back to the Go heap's high-water mark (an undercount — it misses
// non-heap memory — so the gate only hard-fails when VmHWM is
// readable).
func peakRSSMB() (int, bool) {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.Atoi(fields[1]); err == nil {
					return kb / 1024, true
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int(ms.HeapSys / (1 << 20)), false
}
