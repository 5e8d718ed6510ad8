// Command benchmark is the repository's performance yardstick: four
// named workloads, eight end-to-end metrics and a per-layer trace, all
// measured from outside the engine. See README.md.
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one pass (the driver's form)
//	bash benchmark/run.sh [-seeds n] [-out file]                          every workload, each in its own child process
//	bash benchmark/run.sh -compare old.json new.json
//	bash benchmark/run.sh -smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// minFeds is how many federations an end-to-end pass measures at least;
// the accuracy, wire and failure metrics are means over exactly these.
const minFeds = 8

func main() {
	var (
		workloadName = flag.String("workload", "", "run one pass of this workload in this process; empty runs every workload in child processes")
		seed         = flag.Int64("seed", 1, "drives data synthesis, the partition and Config.Seed")
		seconds      = flag.Float64("seconds", runSeconds, "how long an end-to-end pass measures")
		trace        = flag.Int("trace", 0, "0: untraced end-to-end pass; 1: traced per-layer pass")
		spansPath    = flag.String("spans", "", "write the traced pass's spans to this file")
		outPath      = flag.String("out", "", "write the result file here (default benchmark-result.json when running every workload)")
		seeds        = flag.Int("seeds", 3, "seeds per workload when running every workload, starting at -seed")
		compare      = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		smoke        = flag.Bool("smoke", false, "run every workload at 2 rounds / 1 rep in-process and check names and invariants")
		printSpec    = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	var err error
	switch {
	case *printSpec:
		err = writeJSON(os.Stdout, benchmarkManifest())
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *smoke:
		err = runSmoke(os.Stdout, *seed)
	case *workloadName != "":
		err = runOne(*workloadName, *seed, *seconds, *trace != 0, *spansPath, *outPath)
	default:
		if *outPath == "" {
			*outPath = "benchmark-result.json"
		}
		err = runAll(*seed, *seeds, *seconds, *spansPath, *outPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeJSON(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resultFile is what -out writes: the machine, how the command was run,
// and every pass with its raw samples, so a reading can be re-examined
// later instead of re-argued.
type resultFile struct {
	Machine   machine `json:"machine"`
	StartedAt string  `json:"started_at"`
	WallS     float64 `json:"wall_s"`
	Seconds   float64 `json:"seconds"`
	MinFeds   int     `json:"min_feds"`
	Passes    []*pass `json:"passes"`
}

// driverResult is the last line of a pass's standard output.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print lists every metric by name with its unit, then the sample
// counts behind them and any failed check.
func (p *pass) print(w io.Writer, specs []metricSpec) {
	kind := "end-to-end"
	if p.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "# %s seed=%d %s pass: %d runs, %d failed\n", p.Workload, p.Seed, kind, p.Runs, p.FailedN)
	for _, m := range specs {
		fmt.Fprintf(w, "%-30s %16.9g %s\n", m.Name, p.Metrics[m.Name].Value, m.Unit)
	}
	names := make([]string, 0, len(p.Samples))
	for name := range p.Samples {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprint(w, "samples:")
	for _, name := range names {
		fmt.Fprintf(w, " %s=%d", name, len(p.Samples[name]))
	}
	fmt.Fprintln(w)
	for i, h := range p.HistorySHA256 {
		fmt.Fprintf(w, "history_sha256[%d] %s\n", i, h)
	}
	for _, f := range p.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
}

func (p *pass) correct() bool { return len(p.Failures) == 0 && p.Runs > 0 }

// runOne measures one pass in this process, so the process's own
// rusage is the workload's peak memory and CPU time.
func runOne(name string, seed int64, seconds float64, trace bool, spansPath, outPath string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	started := time.Now()
	var (
		p     *pass
		specs = endToEnd
	)
	if trace {
		var tr *tracer
		p, tr = measureLayers(w, seed, fullScale)
		specs = perLayer
		if spansPath != "" {
			if err := writeJSONFile(spansPath, tr.spans); err != nil {
				return err
			}
		}
	} else {
		p = measureEndToEnd(w, seed, seconds, fullScale, minFeds)
	}
	p.print(os.Stdout, specs)
	if outPath != "" {
		rf := resultFile{
			Machine: thisMachine(), StartedAt: started.UTC().Format(time.RFC3339),
			WallS: time.Since(started).Seconds(), Seconds: seconds, MinFeds: minFeds, Passes: []*pass{p},
		}
		if err := writeJSONFile(outPath, rf); err != nil {
			return err
		}
	}
	if len(p.Metrics) != len(specs) {
		// Nothing was measured; the failures are already printed.
		return fmt.Errorf("%s: no result", name)
	}
	line, err := json.Marshal(driverResult{Correct: p.correct(), Attempted: p.Runs, Failed: p.FailedN, Metrics: p.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !p.correct() {
		return fmt.Errorf("%s: %d correctness checks failed", name, len(p.Failures))
	}
	return nil
}

// runAll runs every workload, each pass in its own sequential child
// process, and merges the children's result files.
func runAll(seed int64, seeds int, seconds float64, spansPath, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "fedbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	started := time.Now()
	rf := resultFile{Machine: thisMachine(), StartedAt: started.UTC().Format(time.RFC3339), Seconds: seconds, MinFeds: minFeds}
	failed := 0
	child := func(w *workload, seed int64, trace int) {
		part := filepath.Join(dir, "part.json")
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", part}
		if trace == 1 && spansPath != "" {
			ext := filepath.Ext(spansPath)
			args = append(args, "-spans", spansPath[:len(spansPath)-len(ext)]+"."+w.name+ext)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed++
		}
		var one resultFile
		if err := readJSONFile(part, &one); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: no result: %v\n", w.name, seed, err)
			return
		}
		os.Remove(part)
		rf.Passes = append(rf.Passes, one.Passes...)
	}
	for _, w := range workloads {
		for i := 0; i < seeds; i++ {
			child(w, seed+int64(i), 0)
		}
		child(w, seed, 1)
	}
	rf.WallS = time.Since(started).Seconds()
	if err := writeJSONFile(outPath, rf); err != nil {
		return err
	}
	fmt.Printf("# wrote %s (%d passes, %.0f s)\n", outPath, len(rf.Passes), rf.WallS)
	if failed > 0 {
		return fmt.Errorf("%d passes failed", failed)
	}
	return nil
}

func readJSONFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// runSmoke runs both passes of every workload at smoke scale in this
// process and reports any failed check.
func runSmoke(out io.Writer, seed int64) error {
	failed := 0
	for _, w := range workloads {
		e := measureEndToEnd(w, seed, 0, smokeScale, 1)
		e.print(out, endToEnd)
		l, _ := measureLayers(w, seed, smokeScale)
		l.print(out, perLayer)
		failed += len(e.Failures) + len(l.Failures)
	}
	if failed > 0 {
		return fmt.Errorf("smoke: %d checks failed", failed)
	}
	return nil
}
