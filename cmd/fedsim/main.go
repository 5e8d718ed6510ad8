// Command fedsim runs the FedCross reproduction experiments: every table
// and figure of the paper's evaluation, at a selectable scale.
//
// Usage:
//
//	fedsim -experiment table1                 # communication analysis
//	fedsim -experiment table2 -profile tiny   # accuracy grid slice
//	fedsim -experiment fig5 -profile small -models cnn,resnet
//	fedsim -experiment all -profile tiny
//	fedsim -experiment table2 -parallel 1     # force serial rounds (same results)
//	fedsim -experiment table2 -jobs 1         # force sequential grid cells (same results)
//	fedsim -experiment comm -codecs identity,int8,topk
//	fedsim -experiment table2 -codec fp16 -net lte -deadline 30
//	fedsim -experiment robust -attack signflip -fracs 0,0.2 -reducers mean,krum
//	fedsim -experiment async -buffers 1,4,8 -staleexp 0.5
//	fedsim -experiment table2 -reducer krum -attack scale -attackfrac 0.1
//	fedsim -experiment fig7 -clients 1000000 -rsslimitmb 2048
//	fedsim -experiment faults -faultlevels 0,0.05,0.1 -quorum 2 -retries 2
//	fedsim -experiment churn -clients 100000 -avails 1,0.7,0.4
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
// The simulated wire: -codec compresses every model payload (identity,
// fp16, int8, topk[:frac]), -net draws per-client bandwidth/latency from
// a link model (none, fiber, wifi, lte, edge), and -deadline turns
// clients whose upload exceeds the round budget (seconds) into
// stragglers. All three apply to every experiment; the comm experiment
// additionally sweeps -codecs on identical runs and reports accuracy
// against measured megabytes on the wire.
//
// Robustness: -reducer swaps the server-side aggregation rule (mean,
// median, trimmed[:frac], krum[:f], multikrum[:f[:m]]) and -attack
// compromises an -attackfrac fraction of the client population
// (labelflip, signflip, scale, collude; -attackscale amplifies the
// scaled attacks). Both apply to any experiment; the robust experiment
// sweeps -reducers × -fracs on identical environments and reports each
// rule's retention of its own benign accuracy. The async experiment
// runs the buffered-async (FedBuff-style) engine over -buffers ×
// -inflights, with -staleexp damping stale arrivals; -buffer and
// -inflight pin a single cell. Attacked and async runs keep the same
// fixed-seed determinism as everything else.
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
// sweep -faultlevels/-avails on identical runs; the resume experiment is
// a pass/fail equality gate over every algorithm (not part of "all").
//
// Scale: -clients overrides the client population N (the fig7 sweep
// then runs that single N), -k overrides the activated clients per
// round. Populations at or above the lazy cutoff synthesize shards on
// demand from the partition seed, so N=10^6 holds only the LRU working
// set resident; -rsslimitmb makes the run fail if peak RSS (VmHWM)
// exceeds the ceiling — the memory-boundedness gate CI relies on.
// -stripes and -cachecap tune the lazy shard cache's lock geometry and
// resident capacity, and -prefetch hands that many future rounds of
// planned cohorts to a background pool that synthesizes their shards
// while the current round trains. All three are wall-clock/memory knobs
// only: histories are bit-identical at every setting.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"fedcross/internal/core"
	"fedcross/internal/data"
	"fedcross/internal/experiments"
	"fedcross/internal/fl"
)

func main() {
	var (
		experiment = flag.String("experiment", "table1", "experiment to run: table1, table2, table3, fig3, fig4, fig5, fig6, fig7, fig8, fig9, comm, robust, async, ablations, faults, churn, resume, all")
		profile    = flag.String("profile", "tiny", "run scale: tiny, small, paper")
		modelsFlag = flag.String("models", "cnn", "comma-separated vision models (cnn,resnet,vgg,mlp)")
		datasets   = flag.String("datasets", "vision10", "comma-separated datasets for table2")
		betas      = flag.String("betas", "0.5", "comma-separated Dirichlet betas (non-IID settings)")
		iid        = flag.Bool("iid", true, "include the IID setting where applicable")
		alphas     = flag.String("alphas", "0.5,0.8,0.9,0.95,0.99,0.999", "comma-separated alphas for table3/fig8")
		rounds     = flag.Int("rounds", 0, "override the profile's round count (0 keeps profile default)")
		clients    = flag.Int("clients", 0, "override the profile's client population N (0 keeps profile default); fig7 sweeps exactly this N")
		kFlag      = flag.Int("k", 0, "override the profile's activated clients per round K (0 keeps profile default)")
		rssLimitMB = flag.Int("rsslimitmb", 0, "fail if peak RSS exceeds this many MiB (0 = no gate)")
		seeds      = flag.Int("seeds", 0, "override the number of seeds (0 keeps profile default)")
		parallel   = flag.Int("parallel", 0, "worker goroutines for client training/eval (0 = all cores, 1 = serial; results are identical)")
		jobs       = flag.Int("jobs", 0, "concurrent experiment grid cells (0 = all cores, 1 = sequential; results are identical)")
		codec      = flag.String("codec", "identity", "wire codec for model payloads: identity, fp16, int8, topk[:frac]")
		network    = flag.String("net", "none", "simulated link model: none, fiber, wifi, lte, edge")
		deadline   = flag.Float64("deadline", 0, "per-round client deadline in seconds (0 = none); late uploads become stragglers")
		codecs     = flag.String("codecs", "identity,fp16,int8,topk", "comma-separated codec sweep for the comm experiment")

		reducer      = flag.String("reducer", "", "server-side aggregation rule: mean, trimmed[:frac], median, krum[:f], multikrum[:f]:[m] (empty = classic weighted mean)")
		attack       = flag.String("attack", "none", "Byzantine client behaviour: none, labelflip, signflip, scale, collude")
		attackFrac   = flag.Float64("attackfrac", 0, "fraction of the client population compromised, in [0,1)")
		attackScale  = flag.Float64("attackscale", 0, "magnitude of the scale/collude attacks (0 = default 10)")
		reducers     = flag.String("reducers", "mean,trimmed,median,krum,multikrum", "comma-separated reducer sweep for the robust experiment")
		fracs        = flag.String("fracs", "0,0.2", "comma-separated attacker fractions for the robust experiment")
		buffers      = flag.String("buffers", "1,4,8", "comma-separated commit buffer sizes for the async experiment")
		inflights    = flag.String("inflights", "", "comma-separated in-flight client counts for the async experiment (empty = K,2K)")
		buffer       = flag.Int("buffer", 0, "async commit buffer size B outside the sweep (0 = default 4)")
		inflight     = flag.Int("inflight", 0, "async concurrent clients M outside the sweep (0 = clients per round)")
		staleExp     = flag.Float64("staleexp", 0, "async staleness-weight exponent p in 1/(1+s)^p (0 = default 0.5)")
		algosFlag    = flag.String("algos", "", "comma-separated algorithm subset for table2 and the resume experiment (empty = all six); restricting to one algorithm makes -checkpoint/-resume single-cell")
		faultsSpec   = flag.String("faults", "", "fault-injection spec, e.g. crash=0.1,drop=0.05,truncate=0.01,corrupt=0.01,dup=0.02,straggle=0.1,stragglefactor=4,stall=0.05,stallsec=1 (empty = fault-free)")
		faultLevels  = flag.String("faultlevels", "", "comma-separated fault intensities for the faults experiment (empty = 0,0.05,0.1)")
		quorum       = flag.Int("quorum", 0, "minimum accepted uploads per round; below it the round degrades (keeps the current model) instead of aggregating (0 = no quorum)")
		retries      = flag.Int("retries", 0, "upload retry attempts after a wire fault (0 = none)")
		retryBackoff = flag.Float64("retrybackoff", 0, "simulated seconds added per upload retry attempt")
		churnSpec    = flag.String("churn", "", "availability-churn spec, e.g. avail=0.7,period=24,jitter=0.3,start=1,end=0.5 (empty = static fleet)")
		avails       = flag.String("avails", "", "comma-separated mean availabilities for the churn experiment (empty = 1,0.7,0.4)")
		checkpoint   = flag.String("checkpoint", "", "round-snapshot file for crash-safe runs (empty = no checkpointing)")
		ckptEvery    = flag.Int("checkpointevery", 0, "write a snapshot every n completed rounds (0 = only at -stopafter)")
		resumeFlag   = flag.Bool("resume", false, "resume from the -checkpoint snapshot instead of starting at round 0")
		stopAfter    = flag.Int("stopafter", 0, "halt after this round completes, writing a snapshot (simulated kill; 0 = run to completion)")
		stopsFlag    = flag.String("stops", "", "comma-separated kill rounds for the resume experiment (empty = 1, mid, last-1)")
		prefetchR    = flag.Int("prefetch", 0, "rounds of cohort lookahead handed to the lazy source's background prefetch pool (0 = off; results are identical)")
		stripes      = flag.Int("stripes", 0, "lazy shard-cache stripe count (0 = auto: clamp(NumCPU,8,64); results are identical)")
		cacheCap     = flag.Int("cachecap", 0, "lazy shard-cache resident capacity (0 = auto: clamp(4K,64,4096))")
	)
	flag.Parse()

	prof, err := profileByName(*profile)
	if err != nil {
		fatal(err)
	}
	if *rounds < 0 {
		fatal(fmt.Errorf("-rounds %d must be non-negative", *rounds))
	}
	if *rounds > 0 {
		prof.Rounds = *rounds
	}
	if *clients < 0 {
		fatal(fmt.Errorf("-clients %d must be non-negative", *clients))
	}
	if *kFlag < 0 {
		fatal(fmt.Errorf("-k %d must be non-negative", *kFlag))
	}
	if *clients > 0 {
		prof.NumClients = *clients
		if prof.ClientsPerRound > prof.NumClients {
			prof.ClientsPerRound = prof.NumClients
		}
	}
	if *kFlag > 0 {
		if *kFlag > prof.NumClients {
			fatal(fmt.Errorf("-k %d exceeds the client population N=%d (raise -clients or lower -k)", *kFlag, prof.NumClients))
		}
		prof.ClientsPerRound = *kFlag
	}
	if *prefetchR < 0 {
		fatal(fmt.Errorf("-prefetch %d must be non-negative", *prefetchR))
	}
	prof.PrefetchRounds = *prefetchR
	if *stripes < 0 {
		fatal(fmt.Errorf("-stripes %d must be non-negative", *stripes))
	}
	prof.CacheStripes = *stripes
	if *cacheCap < 0 {
		fatal(fmt.Errorf("-cachecap %d must be non-negative", *cacheCap))
	}
	prof.CacheCap = *cacheCap
	if *rssLimitMB < 0 {
		fatal(fmt.Errorf("-rsslimitmb %d must be non-negative", *rssLimitMB))
	}
	if *parallel < 0 {
		fatal(fmt.Errorf("-parallel %d must be non-negative", *parallel))
	}
	prof.Parallelism = *parallel
	if *jobs < 0 {
		fatal(fmt.Errorf("-jobs %d must be non-negative", *jobs))
	}
	prof.Jobs = *jobs
	prof.Codec = *codec
	prof.Network = *network
	if *deadline < 0 {
		fatal(fmt.Errorf("-deadline %v must be non-negative", *deadline))
	}
	prof.DeadlineSec = *deadline
	if err := (fl.TransportOptions{Codec: prof.Codec, Network: prof.Network, DeadlineSec: prof.DeadlineSec}).Validate(); err != nil {
		fatal(err)
	}
	if err := experiments.ValidateReducer(*reducer); err != nil {
		fatal(err)
	}
	prof.Reducer = *reducer
	prof.Attack = *attack
	prof.AttackFrac = *attackFrac
	prof.AttackScale = *attackScale
	if err := (fl.AdversaryOptions{Attack: prof.Attack, Frac: prof.AttackFrac, Scale: prof.AttackScale}).Validate(); err != nil {
		fatal(err)
	}
	algoList := splitList(*algosFlag)
	for _, a := range algoList {
		if _, err := experiments.NewAlgorithm(a); err != nil {
			fatal(fmt.Errorf("-algos: %w", err))
		}
	}
	faultOpts, err := parseFaultSpec(*faultsSpec)
	if err != nil {
		fatal(err)
	}
	if err := faultOpts.Validate(); err != nil {
		fatal(err)
	}
	prof.Faults = faultOpts
	if *quorum < 0 {
		fatal(fmt.Errorf("-quorum %d must be non-negative", *quorum))
	}
	if *quorum > prof.ClientsPerRound {
		fatal(fmt.Errorf("-quorum %d exceeds the %d activated clients per round (no round could ever meet it)", *quorum, prof.ClientsPerRound))
	}
	prof.MinUploads = *quorum
	if *retries < 0 {
		fatal(fmt.Errorf("-retries %d must be non-negative", *retries))
	}
	prof.Retries = *retries
	if *retryBackoff < 0 {
		fatal(fmt.Errorf("-retrybackoff %v must be non-negative", *retryBackoff))
	}
	prof.RetryBackoffSec = *retryBackoff
	churnOpts, err := parseChurnSpec(*churnSpec)
	if err != nil {
		fatal(err)
	}
	if err := churnOpts.Validate(); err != nil {
		fatal(err)
	}
	prof.Churn = churnOpts
	prof.Checkpoint = fl.CheckpointOptions{
		Path:           *checkpoint,
		Every:          *ckptEvery,
		Resume:         *resumeFlag,
		StopAfterRound: *stopAfter,
	}
	if err := prof.Checkpoint.Validate(); err != nil {
		fatal(err)
	}
	if *seeds < 0 {
		fatal(fmt.Errorf("-seeds %d must be non-negative", *seeds))
	}
	if *seeds > 0 {
		prof.Seeds = prof.Seeds[:0]
		for s := 1; s <= *seeds; s++ {
			prof.Seeds = append(prof.Seeds, int64(s))
		}
	}

	modelList := listOr(splitList(*modelsFlag), "cnn")
	datasetList := listOr(splitList(*datasets), "vision10")
	hetList, err := parseHets(*betas, *iid)
	if err != nil {
		fatal(err)
	}
	alphaList, err := parseFloats(*alphas)
	if err != nil {
		fatal(err)
	}
	if len(alphaList) == 0 {
		fatal(fmt.Errorf("-alphas must name at least one value"))
	}

	run := func(name string) error {
		fmt.Printf("=== %s (profile %s) ===\n", name, prof.Name)
		switch name {
		case "table1":
			res, err := experiments.RunTableI(prof.ClientsPerRound)
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		case "table2":
			res, err := experiments.RunTableII(experiments.TableIIOptions{
				Profile: prof, Models: modelList, Datasets: datasetList, Hets: hetList,
				Algorithms: algoList,
			})
			if err != nil {
				return err
			}
			if err := res.Render(os.Stdout); err != nil {
				return err
			}
			wins, total := res.FedCrossWins()
			fmt.Printf("FedCross wins %d of %d cells\n", wins, total)
			return nil
		case "table3":
			res, err := experiments.RunTableIII(experiments.TableIIIOptions{
				Profile: prof, Alphas: alphaList,
				Strategies: []core.Strategy{core.InOrder, core.HighestSimilarity, core.LowestSimilarity},
				Model:      modelList[0], Beta: 1.0,
			})
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		case "fig3":
			opts := experiments.DefaultFig3Options()
			opts.Profile = prof
			res, err := experiments.RunFig3(opts)
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		case "fig4":
			opts := experiments.DefaultFig4Options()
			opts.Profile = prof
			opts.Model = modelList[0]
			res, err := experiments.RunFig4(opts)
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		case "fig5":
			res, err := experiments.RunFig5(experiments.Fig5Options{Profile: prof, Models: modelList, Hets: hetList})
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		case "fig6":
			opts := experiments.DefaultFig6Options()
			opts.Profile = prof
			opts.Model = modelList[0]
			res, err := experiments.RunFig6(opts)
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		case "fig7":
			opts := experiments.DefaultFig7Options()
			opts.Profile = prof
			opts.Model = modelList[0]
			if *clients > 0 {
				opts.Ns = []int{*clients}
			}
			if *kFlag > 0 {
				opts.KCap = *kFlag
			}
			res, err := experiments.RunFig7(opts)
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		case "fig8":
			opts := experiments.DefaultFig8Options()
			opts.Profile = prof
			opts.Model = modelList[0]
			opts.Alphas = alphaList
			res, err := experiments.RunFig8(opts)
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		case "fig9":
			opts := experiments.DefaultFig9Options()
			opts.Profile = prof
			opts.Model = modelList[0]
			res, err := experiments.RunFig9(opts)
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		case "comm":
			opts := experiments.DefaultCommCurveOptions()
			opts.Profile = prof
			opts.Model = modelList[0]
			if len(splitList(*codecs)) == 0 {
				return fmt.Errorf("-codecs must name at least one codec")
			}
			opts.Codecs = splitList(*codecs)
			opts.Network = *network
			opts.DeadlineSec = *deadline
			res, err := experiments.RunCommCurve(opts)
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		case "robust":
			opts := experiments.DefaultRobustOptions()
			opts.Profile = prof
			opts.Model = modelList[0]
			if *attack != "" && *attack != "none" {
				opts.Attack = *attack
			}
			opts.Scale = *attackScale
			if list := splitList(*reducers); len(list) > 0 {
				opts.Reducers = list
			}
			fr, err := parseFloats(*fracs)
			if err != nil {
				return err
			}
			if len(fr) > 0 {
				opts.Fracs = fr
			}
			res, err := experiments.RunRobust(opts)
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		case "async":
			opts := experiments.DefaultAsyncSweepOptions(prof)
			opts.Model = modelList[0]
			opts.Async = fl.AsyncOptions{StalenessExp: *staleExp}
			bufList, err := parseInts(*buffers)
			if err != nil {
				return err
			}
			if len(bufList) > 0 {
				opts.Buffers = bufList
			}
			ifList, err := parseInts(*inflights)
			if err != nil {
				return err
			}
			if len(ifList) > 0 {
				opts.InFlights = ifList
			}
			// -buffer / -inflight pin a single cell on each axis.
			if *buffer > 0 {
				opts.Buffers = []int{*buffer}
			}
			if *inflight > 0 {
				opts.InFlights = []int{*inflight}
			}
			res, err := experiments.RunAsyncSweep(opts)
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		case "faults":
			opts := experiments.DefaultFaultGridOptions()
			opts.Profile = prof
			opts.Model = modelList[0]
			lv, err := parseFloats(*faultLevels)
			if err != nil {
				return err
			}
			if len(lv) > 0 {
				opts.Levels = lv
			}
			opts.MinUploads = *quorum
			opts.Retries = *retries
			opts.RetryBackoffSec = *retryBackoff
			res, err := experiments.RunFaultGrid(opts)
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		case "churn":
			opts := experiments.DefaultChurnGridOptions()
			opts.Profile = prof
			opts.Model = modelList[0]
			av, err := parseFloats(*avails)
			if err != nil {
				return err
			}
			if len(av) > 0 {
				opts.Availabilities = av
			}
			if churnOpts.Jitter > 0 {
				opts.Jitter = churnOpts.Jitter
			}
			if churnOpts.StartFrac > 0 {
				opts.StartFrac = churnOpts.StartFrac
			}
			if churnOpts.EndFrac > 0 {
				opts.EndFrac = churnOpts.EndFrac
			}
			res, err := experiments.RunChurnGrid(opts)
			if err != nil {
				return err
			}
			return res.Render(os.Stdout)
		case "resume":
			opts := experiments.DefaultResumeCheckOptions()
			opts.Profile = prof
			opts.Model = modelList[0]
			if len(algoList) > 0 {
				opts.Algorithms = algoList
			}
			st, err := parseInts(*stopsFlag)
			if err != nil {
				return err
			}
			opts.StopRounds = st
			res, err := experiments.RunResumeCheck(opts)
			if res != nil {
				if rerr := res.Render(os.Stdout); rerr != nil && err == nil {
					err = rerr
				}
			}
			return err
		case "ablations":
			aopts := experiments.DefaultAblationOptions()
			aopts.Profile = prof
			aopts.Model = modelList[0]
			shuffle, err := experiments.RunAblationShuffle(aopts)
			if err != nil {
				return err
			}
			if err := shuffle.Render(os.Stdout); err != nil {
				return err
			}
			sim, err := experiments.RunAblationSimilarity(aopts)
			if err != nil {
				return err
			}
			if err := sim.Render(os.Stdout); err != nil {
				return err
			}
			prop, err := experiments.RunAblationPropellerCount(aopts, []int{1, 2, 3})
			if err != nil {
				return err
			}
			return prop.Render(os.Stdout)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	names := []string{*experiment}
	if *experiment == "all" {
		names = []string{"table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "comm", "robust", "async", "ablations", "faults", "churn"}
	}
	for _, name := range names {
		if err := run(name); err != nil {
			if errors.Is(err, fl.ErrStopped) {
				fmt.Printf("%s: run stopped at round %d; snapshot written to %s (continue with -resume)\n",
					name, *stopAfter, *checkpoint)
				continue
			}
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Println()
	}

	if peak, ok := peakRSSMB(); ok {
		fmt.Printf("peak RSS: %d MiB\n", peak)
		if *rssLimitMB > 0 && peak > *rssLimitMB {
			fatal(fmt.Errorf("peak RSS %d MiB exceeds -rsslimitmb %d MiB", peak, *rssLimitMB))
		}
	} else if *rssLimitMB > 0 {
		fatal(fmt.Errorf("-rsslimitmb set but peak RSS is unavailable on this platform"))
	}
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

// splitList parses a comma-separated flag value; an empty flag yields an
// empty list, and each caller supplies its own default (or error).
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// listOr returns the parsed list, or the flag's default when it is empty.
func listOr(vals []string, def string) []string {
	if len(vals) == 0 {
		return []string{def}
	}
	return vals
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range splitList(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad positive integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseHets(betas string, iid bool) ([]data.Heterogeneity, error) {
	vals, err := parseFloats(betas)
	if err != nil {
		return nil, err
	}
	var hets []data.Heterogeneity
	for _, b := range vals {
		hets = append(hets, data.Heterogeneity{Beta: b})
	}
	if iid {
		hets = append(hets, data.Heterogeneity{IID: true})
	}
	if len(hets) == 0 {
		return nil, fmt.Errorf("-betas is empty and -iid=false: no heterogeneity setting left to run")
	}
	return hets, nil
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fedsim:", err)
	os.Exit(1)
}
