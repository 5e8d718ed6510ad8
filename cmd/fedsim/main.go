// Command fedsim runs the FedCross reproduction experiments: every table
// and figure of the paper's evaluation, at a selectable scale.
//
// Usage:
//
//	fedsim -experiment table1                 # communication analysis
//	fedsim -experiment table2 -profile tiny   # accuracy grid slice
//	fedsim -experiment fig5 -profile small -grid model=cnn,resnet
//	fedsim -experiment all -profile tiny
//	fedsim -experiment table2 -parallel 1     # force serial rounds (same results)
//	fedsim -experiment table2 -jobs 1         # force sequential grid cells (same results)
//	fedsim -experiment comm -grid codec=identity,int8,topk
//	fedsim -experiment table2 -codec fp16 -net lte -deadline 30
//	fedsim -experiment robust -attack signflip -grid frac=0,0.2 -grid reducer=mean,krum
//	fedsim -experiment async -grid buffer=1,4,8 -staleexp 0.5
//	fedsim -experiment table2 -reducer krum -attack scale -attackfrac 0.1
//	fedsim -experiment fig7 -grid n=1000000 -rsslimitmb 2048
//	fedsim -experiment table3 -grid alpha=0.5,0.99 -grid strategy=in-order,lowest
//	fedsim -experiment faults -grid level=0,0.05,0.1 -quorum 2 -retries 2
//	fedsim -experiment churn -clients 100000 -grid avail=1,0.7,0.4
//	fedsim -experiment resume                  # crash/resume equality gate
//	fedsim -experiment table2 -faults crash=0.1,drop=0.1 -quorum 2
//	fedsim -experiment table2 -checkpoint run.ckpt -stopafter 4   # kill …
//	fedsim -experiment table2 -checkpoint run.ckpt -resume        # … resume
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
// Sweeps: the repeatable -grid axis=v1,v2 is the only way to name swept
// values. Every experiment but table1, fig3, fig4 and resume is a declared
// grid on one runner — a base cell built from the global flags plus named
// axes — and reads the axes its preset declares: table2 dataset × model ×
// beta (numbers or "iid") × algo; table3 alpha × strategy; fig5 model ×
// beta × algo; fig6 k × algo; fig7 n × algo; fig8 strategy × alpha; fig9
// beta × accel; ablations shuffle, similarity and propellers (three grids
// in a row); fidelity beta × algo, FedCross's margin over FedAvg per row;
// table3, fig6 and fidelity also rounds, an outermost axis that exists
// only when named (and then replaces -rounds); comm codec; robust frac ×
// reducer; async buffer × inflight; faults level; churn avail. model is an
// axis under table2 and fig5 and names the one model everywhere else (fig4
// and resume included; resume also reads algo and stop). A preset also declares what a cell reports —
// mean ± std over every seed, first-seed accuracies, or the learning curve
// — and which axis, if any, is laid across the page as column groups or as
// the curves of a panel. Naming an axis the chosen experiment does not
// read, a second model where it runs one, or -seeds where nothing about to
// run reports over seeds is a usage error that lists what it does read.
//
// The simulated wire: -codec compresses every model payload (identity,
// fp16, int8, topk[:frac]), -net draws per-client bandwidth/latency from
// a link model (none, fiber, wifi, lte, edge), and -deadline turns
// clients whose upload exceeds the round budget (seconds) into
// stragglers. All three apply to every experiment; the comm experiment
// additionally sweeps the codec axis on identical runs and reports
// accuracy against measured megabytes on the wire.
//
// Robustness: -reducer swaps the server-side aggregation rule (mean,
// median, trimmed[:frac], krum[:f], multikrum[:f[:m]]) and -attack
// compromises an -attackfrac fraction of the client population
// (labelflip, signflip, scale, collude; -attackscale amplifies the
// scaled attacks). Both apply to any experiment; the robust experiment
// sweeps frac × reducer on identical environments and reports each
// rule's retention of its own benign accuracy. The async experiment
// runs the buffered-async (FedBuff-style) engine over buffer × inflight,
// with -staleexp damping stale arrivals. Attacked and async runs keep the
// same fixed-seed determinism as everything else.
//
// Fault tolerance: -faults injects deterministic client crashes, payload
// drops/truncation/corruption/duplication, stragglers and server stalls
// (key=value spec, pure functions of the seed — rate 0 is bit-identical
// to a fault-free run), -retries/-retrybackoff give uploads deadline-aware
// retry attempts, and -quorum lets a round degrade (keep the current
// model) instead of aggregating below the floor. -churn drives diurnal
// availability traces and a population ramp. -checkpoint writes
// write-ahead round snapshots (-checkpointevery n rounds, -stopafter
// simulates a kill at a round boundary) and -resume continues a killed
// run to a byte-identical final history. The faults/churn experiments
// sweep level/avail on identical runs; the resume experiment is a
// pass/fail equality gate over every algorithm (not part of "all").
//
// Scale: -clients overrides the client population N and -k the activated
// clients per round; fig7 sweeps N through -grid n= and derives K from it
// (a tenth, at least 2, at most 100), fig6 sweeps K through -grid k=, and
// both reject the flag their axis would overwrite. Populations at or
// above the lazy cutoff synthesize shards on
// demand from the partition seed, so N=10^6 holds only the LRU working
// set resident; -rsslimitmb makes the run fail if peak RSS (VmHWM)
// exceeds the ceiling — the memory-boundedness gate CI relies on.
// -prefetch hands that many future rounds of planned cohorts to a
// background pool that synthesizes their shards while the current round
// trains; it moves wall-clock only, histories are bit-identical at every
// setting.
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

	"fedcross/internal/experiments"
	"fedcross/internal/fl"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "fedsim:", err)
		os.Exit(1)
	}
}

// gridFlag collects the repeatable -grid axis=v1,v2 arguments.
type gridFlag map[string][]string

func (g gridFlag) String() string { return "" }

func (g gridFlag) Set(s string) error {
	name, vals, ok := strings.Cut(s, "=")
	name = strings.TrimSpace(name)
	if !ok || name == "" {
		return fmt.Errorf("want axis=v1,v2, got %q", s)
	}
	if _, dup := g[name]; dup {
		return fmt.Errorf("axis %q named twice", name)
	}
	list := splitList(vals)
	if len(list) == 0 {
		return fmt.Errorf("axis %q has no values", name)
	}
	g[name] = list
	return nil
}

// ownAxes declares the -grid axes read by the experiments that keep their
// own code. Every other experiment is one or more grid presets, and reads
// model plus the axes those declare.
var ownAxes = map[string][]string{
	"table1": nil,
	"fig3":   nil,
	"fig4":   {"model"},
	"resume": {"model", "algo", "stop"},
}

// allExperiments is what -experiment all runs, in order (resume and
// fidelity are gates and run only by name).
var allExperiments = []string{"table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "comm", "robust", "async", "ablations", "faults", "churn"}

// presetsOf names the grid presets an experiment runs, in order.
func presetsOf(name string) []string {
	if name == "ablations" {
		return []string{"ablation-shuffle", "ablation-similarity", "ablation-propellers"}
	}
	return []string{name}
}

// run is the whole command on its own flag set, so tests drive it without
// a subprocess.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("fedsim", flag.ContinueOnError)
	grid := gridFlag{}
	fs.Var(grid, "grid", "swept values, `axis=v1,v2` (repeatable): model, dataset, beta (numbers or iid), algo, alpha, strategy, accel, shuffle, similarity, propellers, k, n, rounds for the paper's tables and figures; codec, frac, reducer, buffer, inflight, level, avail for comm/robust/async/faults/churn; stop for resume. An axis the experiment does not read is an error")
	var (
		experiment = fs.String("experiment", "table1", "experiment to run: "+strings.Join(allExperiments, ", ")+", fidelity, resume, all")
		profile    = fs.String("profile", "tiny", "run scale: tiny, small, paper")
		rounds     = fs.Int("rounds", 0, "override the profile's round count (0 keeps profile default); table3 and fig6 can sweep it with -grid rounds= instead")
		clients    = fs.Int("clients", 0, "override the profile's client population N (0 keeps profile default); fig7 sweeps it with -grid n= instead")
		kFlag      = fs.Int("k", 0, "override the profile's activated clients per round K (0 keeps profile default); fig6 sweeps it with -grid k= and fig7 derives it from n")
		rssLimitMB = fs.Int("rsslimitmb", 0, "fail if peak RSS exceeds this many MiB (0 = no gate)")
		seeds      = fs.Int("seeds", 0, "override the number of seeds (0 keeps profile default); read by table2, table3, ablations and fidelity (which runs at least five)")
		parallel   = fs.Int("parallel", 0, "worker goroutines for client training/eval (0 = all cores, 1 = serial; results are identical)")
		jobs       = fs.Int("jobs", 0, "concurrent experiment grid cells (0 = all cores, 1 = sequential; results are identical)")
		codec      = fs.String("codec", "identity", "wire codec for model payloads: identity, fp16, int8, topk[:frac]")
		network    = fs.String("net", "none", "simulated link model: none, fiber, wifi, lte, edge")
		deadline   = fs.Float64("deadline", 0, "per-round client deadline in seconds (0 = none); late uploads become stragglers")

		reducer      = fs.String("reducer", "", "server-side aggregation rule: mean, trimmed[:frac], median, krum[:f], multikrum[:f]:[m] (empty = classic weighted mean)")
		attack       = fs.String("attack", "none", "Byzantine client behaviour: none, labelflip, signflip, scale, collude")
		attackFrac   = fs.Float64("attackfrac", 0, "fraction of the client population compromised, in [0,1)")
		attackScale  = fs.Float64("attackscale", 0, "magnitude of the scale/collude attacks (0 = default 10)")
		staleExp     = fs.Float64("staleexp", 0, "async staleness-weight exponent p in 1/(1+s)^p (0 = default 0.5)")
		faultsSpec   = fs.String("faults", "", "fault-injection spec, e.g. crash=0.1,drop=0.05,truncate=0.01,corrupt=0.01,dup=0.02,straggle=0.1,stragglefactor=4,stall=0.05,stallsec=1 (empty = fault-free)")
		quorum       = fs.Int("quorum", 0, "minimum accepted uploads per round; below it the round degrades (keeps the current model) instead of aggregating (0 = no quorum)")
		retries      = fs.Int("retries", 0, "upload retry attempts after a wire fault (0 = none)")
		retryBackoff = fs.Float64("retrybackoff", 0, "simulated seconds added per upload retry attempt")
		churnSpec    = fs.String("churn", "", "availability-churn spec, e.g. avail=0.7,period=24,jitter=0.3,start=1,end=0.5 (empty = static fleet)")
		checkpoint   = fs.String("checkpoint", "", "round-snapshot file for crash-safe runs (empty = no checkpointing); with -grid algo=<one> a table2 run is a single cell")
		ckptEvery    = fs.Int("checkpointevery", 0, "write a snapshot every n completed rounds (0 = only at -stopafter)")
		resumeFlag   = fs.Bool("resume", false, "resume from the -checkpoint snapshot instead of starting at round 0")
		stopAfter    = fs.Int("stopafter", 0, "halt after this round completes, writing a snapshot (simulated kill; 0 = run to completion)")
		prefetchR    = fs.Int("prefetch", 0, "rounds of cohort lookahead handed to the lazy source's background prefetch pool (0 = off; results are identical)")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile of the whole command to this `file` (go tool pprof)")
		memProfile   = fs.String("memprofile", "", "write a heap profile to this `file` when the command ends")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		// Every way out of run, usage errors included, ends the profiles.
		if perr := stopProfiles(); err == nil {
			err = perr
		}
	}()

	prof, err := profileByName(*profile)
	if err != nil {
		return err
	}
	if *rounds < 0 {
		return fmt.Errorf("-rounds %d must be non-negative", *rounds)
	}
	if *rounds > 0 {
		prof.Rounds = *rounds
	}
	if *clients < 0 {
		return fmt.Errorf("-clients %d must be non-negative", *clients)
	}
	if *kFlag < 0 {
		return fmt.Errorf("-k %d must be non-negative", *kFlag)
	}
	if *clients > 0 {
		prof.NumClients = *clients
		if prof.ClientsPerRound > prof.NumClients {
			prof.ClientsPerRound = prof.NumClients
		}
	}
	if *kFlag > 0 {
		if *kFlag > prof.NumClients {
			return fmt.Errorf("-k %d exceeds the client population N=%d (raise -clients or lower -k)", *kFlag, prof.NumClients)
		}
		prof.ClientsPerRound = *kFlag
	}
	if *prefetchR < 0 {
		return fmt.Errorf("-prefetch %d must be non-negative", *prefetchR)
	}
	prof.PrefetchRounds = *prefetchR
	if *rssLimitMB < 0 {
		return fmt.Errorf("-rsslimitmb %d must be non-negative", *rssLimitMB)
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d must be non-negative", *parallel)
	}
	prof.Parallelism = *parallel
	if *jobs < 0 {
		return fmt.Errorf("-jobs %d must be non-negative", *jobs)
	}
	prof.Jobs = *jobs
	prof.Codec = *codec
	prof.Network = *network
	if *deadline < 0 {
		return fmt.Errorf("-deadline %v must be non-negative", *deadline)
	}
	prof.DeadlineSec = *deadline
	if err := (fl.TransportOptions{Codec: prof.Codec, Network: prof.Network, DeadlineSec: prof.DeadlineSec}).Validate(); err != nil {
		return err
	}
	if err := experiments.ValidateReducer(*reducer); err != nil {
		return err
	}
	prof.Reducer = *reducer
	prof.Attack = *attack
	prof.AttackFrac = *attackFrac
	prof.AttackScale = *attackScale
	if err := (fl.AdversaryOptions{Attack: prof.Attack, Frac: prof.AttackFrac, Scale: prof.AttackScale}).Validate(); err != nil {
		return err
	}
	faultOpts, err := parseFaultSpec(*faultsSpec)
	if err != nil {
		return err
	}
	if err := faultOpts.Validate(); err != nil {
		return err
	}
	prof.Faults = faultOpts
	if *quorum < 0 {
		return fmt.Errorf("-quorum %d must be non-negative", *quorum)
	}
	if *quorum > prof.ClientsPerRound {
		return fmt.Errorf("-quorum %d exceeds the %d activated clients per round (no round could ever meet it)", *quorum, prof.ClientsPerRound)
	}
	prof.MinUploads = *quorum
	if *retries < 0 {
		return fmt.Errorf("-retries %d must be non-negative", *retries)
	}
	prof.Retries = *retries
	if *retryBackoff < 0 {
		return fmt.Errorf("-retrybackoff %v must be non-negative", *retryBackoff)
	}
	prof.RetryBackoffSec = *retryBackoff
	churnOpts, err := parseChurnSpec(*churnSpec)
	if err != nil {
		return err
	}
	if err := churnOpts.Validate(); err != nil {
		return err
	}
	prof.Churn = churnOpts
	prof.Checkpoint = fl.CheckpointOptions{
		Path:           *checkpoint,
		Every:          *ckptEvery,
		Resume:         *resumeFlag,
		StopAfterRound: *stopAfter,
	}
	if err := prof.Checkpoint.Validate(); err != nil {
		return err
	}
	if *seeds < 0 {
		return fmt.Errorf("-seeds %d must be non-negative", *seeds)
	}
	if *seeds > 0 {
		prof.Seeds = prof.Seeds[:0]
		for s := 1; s <= *seeds; s++ {
			prof.Seeds = append(prof.Seeds, int64(s))
		}
	}

	names := []string{*experiment}
	if *experiment == "all" {
		names = allExperiments
	}
	// Every preset takes its swept values from -grid here, before anything
	// runs, and whatever the command line names — an axis, a second model,
	// -seeds, -clients, -k — must be read by an experiment about to run.
	models := grid["model"]
	grids := map[string][]experiments.Grid{}
	read, flagRead := map[string]bool{}, map[string]bool{}
	for _, name := range names {
		axes, own := ownAxes[name]
		var swept []string // the axes this experiment's presets declare
		if !own {
			for _, preset := range presetsOf(name) {
				g, err := experiments.GridPreset(preset, prof)
				if err != nil {
					return fmt.Errorf("unknown experiment %q (want %s, fidelity, resume or all)", name, strings.Join(allExperiments, ", "))
				}
				if g.Base.Async != nil {
					g.Base.Async.StalenessExp = *staleExp
				}
				for _, axis := range g.Reads() {
					swept = append(swept, axis)
					if vals, ok := grid[axis]; ok {
						if err := g.Sweep(axis, vals...); err != nil {
							return err
						}
					}
				}
				if !slices.Contains(swept, "model") && len(models) == 1 {
					g.Base.Model = models[0]
				}
				flagRead["-seeds"] = flagRead["-seeds"] || len(g.Seeds()) > 1
				grids[name] = append(grids[name], g)
			}
			axes = append(swept, "model")
		}
		// The rounds axis, where -grid names it, sets every cell's rounds.
		_, sweepsRounds := grid["rounds"]
		flagRead["-rounds"] = flagRead["-rounds"] || !(sweepsRounds && slices.Contains(swept, "rounds"))
		if len(models) > 1 && slices.Contains(axes, "model") && !slices.Contains(swept, "model") {
			return fmt.Errorf("-grid model=%s: experiment %s runs one model", strings.Join(models, ","), name)
		}
		for _, a := range axes {
			read[a] = true
		}
		// The n axis sets the population and derives K from it; the k axis
		// sets K.
		flagRead["-clients"] = flagRead["-clients"] || !slices.Contains(swept, "n")
		flagRead["-k"] = flagRead["-k"] || !slices.Contains(swept, "n") && !slices.Contains(swept, "k")
	}
	var unread []string
	for _, axis := range slices.Sorted(maps.Keys(grid)) {
		if !read[axis] {
			unread = append(unread, "-grid "+axis)
		}
	}
	for _, f := range []struct {
		name string
		set  bool
	}{{"-seeds", *seeds > 1}, {"-clients", *clients > 0}, {"-k", *kFlag > 0}, {"-rounds", *rounds > 0}} {
		if f.set && !flagRead[f.name] {
			unread = append(unread, f.name)
		}
	}
	if len(unread) > 0 {
		reads := cmp.Or(strings.Join(slices.Sorted(maps.Keys(read)), ", "), "no axis")
		return fmt.Errorf("%s: experiment %s does not read that (it reads: %s)",
			strings.Join(unread, ", "), *experiment, reads)
	}
	model := "cnn"
	if len(models) == 1 {
		model = models[0]
	}
	algoList := grid["algo"]
	stopList, err := parseInts(grid["stop"])
	if err != nil {
		return fmt.Errorf("-grid stop: %w", err)
	}

	runOne := func(name string) error {
		fmt.Fprintf(stdout, "=== %s (profile %s) ===\n", name, prof.Name)
		switch name {
		case "table1":
			res, err := experiments.RunTableI(prof.ClientsPerRound)
			if err != nil {
				return err
			}
			return res.Render(stdout)
		case "fig3":
			opts := experiments.DefaultFig3Options()
			opts.Profile = prof
			res, err := experiments.RunFig3(opts)
			if err != nil {
				return err
			}
			return res.Render(stdout)
		case "fig4":
			opts := experiments.DefaultFig4Options()
			opts.Profile = prof
			opts.Model = model
			res, err := experiments.RunFig4(opts)
			if err != nil {
				return err
			}
			return res.Render(stdout)
		case "resume":
			opts := experiments.DefaultResumeCheckOptions()
			opts.Profile = prof
			opts.Model = model
			if len(algoList) > 0 {
				opts.Algorithms = algoList
			}
			opts.StopRounds = stopList
			res, err := experiments.RunResumeCheck(opts)
			if res != nil {
				if rerr := res.Render(stdout); rerr != nil && err == nil {
					err = rerr
				}
			}
			return err
		default:
			// A grid preset, or the ablations' three: the base cell is the
			// profile as the global flags left it, the axes as -grid left
			// them.
			for _, g := range grids[name] {
				res, err := experiments.RunGrid(g)
				if err != nil {
					return err
				}
				if err := res.Render(stdout); err != nil {
					return err
				}
			}
			return nil
		}
	}

	for _, name := range names {
		if err := runOne(name); err != nil {
			if errors.Is(err, fl.ErrStopped) {
				fmt.Fprintf(stdout, "%s: run stopped at round %d; snapshot written to %s (continue with -resume)\n",
					name, *stopAfter, *checkpoint)
				continue
			}
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(stdout)
	}

	if peak, ok := peakRSSMB(); ok {
		fmt.Fprintf(stdout, "peak RSS: %d MiB\n", peak)
		if *rssLimitMB > 0 && peak > *rssLimitMB {
			return fmt.Errorf("peak RSS %d MiB exceeds -rsslimitmb %d MiB", peak, *rssLimitMB)
		}
	} else if *rssLimitMB > 0 {
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

func profileByName(name string) (experiments.Profile, error) {
	switch name {
	case "tiny":
		return experiments.TinyProfile(), nil
	case "small":
		return experiments.SmallProfile(), nil
	case "paper":
		return experiments.PaperProfile(), nil
	default:
		return experiments.Profile{}, fmt.Errorf("unknown profile %q (want tiny, small or paper)", name)
	}
}

// splitList parses a comma-separated flag value; an empty value yields an
// empty list.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(vals []string) ([]int, error) {
	var out []int
	for _, part := range vals {
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad positive integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseFaultSpec decodes the -faults key=value spec into fault options.
func parseFaultSpec(s string) (fl.FaultOptions, error) {
	var o fl.FaultOptions
	for _, part := range splitList(s) {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return o, fmt.Errorf("bad -faults entry %q (want key=value, e.g. crash=0.1)", part)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return o, fmt.Errorf("bad -faults value in %q: %w", part, err)
		}
		switch strings.TrimSpace(k) {
		case "crash":
			o.CrashRate = x
		case "drop":
			o.DropRate = x
		case "truncate":
			o.TruncateRate = x
		case "corrupt":
			o.CorruptRate = x
		case "dup", "duplicate":
			o.DuplicateRate = x
		case "straggle":
			o.StraggleRate = x
		case "stragglefactor":
			o.StraggleFactor = x
		case "stall":
			o.StallRate = x
		case "stallsec":
			o.StallSec = x
		default:
			return o, fmt.Errorf("unknown -faults key %q (want crash, drop, truncate, corrupt, dup, straggle, stragglefactor, stall, stallsec)", k)
		}
	}
	return o, nil
}

// parseChurnSpec decodes the -churn key=value spec into churn options.
func parseChurnSpec(s string) (fl.ChurnOptions, error) {
	var o fl.ChurnOptions
	for _, part := range splitList(s) {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return o, fmt.Errorf("bad -churn entry %q (want key=value, e.g. avail=0.7)", part)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return o, fmt.Errorf("bad -churn value in %q: %w", part, err)
		}
		switch strings.TrimSpace(k) {
		case "avail", "availability":
			o.Availability = x
		case "period":
			if x != float64(int(x)) || x < 0 {
				return o, fmt.Errorf("bad -churn period %q: want a non-negative integer round count", part)
			}
			o.PeriodRounds = int(x)
		case "jitter":
			o.Jitter = x
		case "start":
			o.StartFrac = x
		case "end":
			o.EndFrac = x
		default:
			return o, fmt.Errorf("unknown -churn key %q (want avail, period, jitter, start, end)", k)
		}
	}
	return o, nil
}
