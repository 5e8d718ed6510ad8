package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"fedcross/internal/baselines"
	"fedcross/internal/core"
	"fedcross/internal/data"
	"fedcross/internal/experiments"
	"fedcross/internal/fl"
)

// TestManifestMatchesBenchmarkJSON pins BENCHMARK.json to the tables in
// this package (no silent renames) and to the limits the benchmark
// contract puts on names, units, reasons and bounds.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	want := benchmarkManifest()
	if !reflect.DeepEqual(onDisk, want) {
		t.Fatalf("BENCHMARK.json differs from the package's tables; regenerate it with -manifest\n got %+v\nwant %+v", onDisk, want)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range want.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range want.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range append(append([]metricSpec{}, want.EndToEnd...), want.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet or length", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range want.PerLayer {
		check(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
}

// sameNames reports whether a pass emitted exactly the declared metrics.
func sameNames(p *pass, specs []metricSpec) bool {
	for _, m := range specs {
		if _, ok := p.Metrics[m.Name]; !ok {
			return false
		}
	}
	return len(p.Metrics) == len(specs)
}

// TestSmoke runs both passes of every workload at 2 rounds / 1 rep: each
// must emit exactly the declared metric names and pass its own
// correctness checks (traced history equals untraced, leases and
// replicas drained, the resumed history equals the uninterrupted one).
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		e := measureEndToEnd(w, 1, 0, smokeScale, 1)
		l, tr := measureLayers(w, 1, smokeScale)
		for _, p := range []*pass{e, l} {
			for _, f := range p.Failures {
				t.Errorf("%s trace=%v: %s", w.name, p.Trace, f)
			}
		}
		if !sameNames(e, endToEnd) {
			t.Errorf("%s: end-to-end pass emitted %v, want exactly the declared set", w.name, e.Metrics)
		}
		if !sameNames(l, perLayer) {
			t.Errorf("%s: per-layer pass emitted %v, want exactly the declared set", w.name, l.Metrics)
		}
		if len(tr.spans) == 0 || l.Metrics["data.lease_calls"].Value == 0 {
			t.Errorf("%s: the traced pass recorded no leases", w.name)
		}
		for _, sp := range tr.spans {
			if sp.End < sp.Start {
				t.Errorf("%s: span %s was never closed", w.name, sp.Name)
				break
			}
		}
	}
	if d := time.Since(start); !raceEnabled && d > 5*time.Second {
		t.Errorf("smoke took %v, want under 5s", d)
	}
}

// tinyEnv is an eager or lazy 4-round federation small enough to run
// every algorithm twice.
func tinyEnv(t *testing.T, lazy bool) (*fl.Env, fl.Config) {
	t.Helper()
	p := experiments.TinyProfile()
	p.Rounds = 4
	p.Codec = "int8" // a hidden TransportUser shows as a different byte count
	p.PrefetchRounds = 1
	if lazy {
		p.NumClients = experiments.LazyClientCutoff
		p.VisionTrainPerClass = 200
		p.ClientsPerRound = 16
	}
	env, err := p.BuildEnv("vision10", "mlp", data.Heterogeneity{Beta: 0.5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return env, p.Config(3)
}

func mustRun(t *testing.T, algo fl.Algorithm, env *fl.Env, cfg fl.Config) string {
	t.Helper()
	h, err := fl.Run(algo, env, cfg)
	if err != nil {
		t.Fatalf("%s: %v", algo.Name(), err)
	}
	return historyHash(h)
}

// TestWrappersKeepHistories runs all six algorithms wrapped and
// unwrapped and compares histories byte for byte: the engine
// type-asserts on TransportUser, RoundCheckpointer and Selector, and
// hiding one changes wire accounting, resume or CluSamp's selection.
// The wrapped run also stops at a checkpoint and resumes through the
// wrapper, and folds through a wrapped reducer.
func TestWrappersKeepHistories(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		names := experiments.AlgorithmNames()
		if lazy {
			names = []string{"fedavg", "fedcross"} // the cache-facing interfaces do not depend on the algorithm
		}
		for _, name := range names {
			env, cfg := tinyEnv(t, lazy)
			reducer, err := core.ReducerByName("median")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Reducer = reducer
			newAlgo := func() fl.Algorithm {
				a, err := experiments.NewAlgorithm(name)
				if err != nil {
					t.Fatal(err)
				}
				return a
			}
			want := mustRun(t, newAlgo(), env, cfg)

			tr := newTracer()
			traced := cfg
			traced.Reducer = tr.wrapReducer(cfg.Reducer)
			tr.beginRun(0)
			if got := mustRun(t, tr.wrapAlgo(newAlgo()), tr.wrapEnv(env), traced); got != want {
				t.Errorf("%s lazy=%v: wrapped history differs from unwrapped", name, lazy)
			}
			tr.endRun()
			if len(tr.holds) != 0 {
				t.Errorf("%s lazy=%v: %d holds left open", name, lazy, len(tr.holds))
			}

			ckpt := traced
			ckpt.Checkpoint = fl.CheckpointOptions{Path: filepath.Join(t.TempDir(), "ck"), StopAfterRound: 2}
			if _, err := fl.Run(tr.wrapAlgo(newAlgo()), tr.wrapEnv(env), ckpt); !errors.Is(err, fl.ErrStopped) {
				t.Fatalf("%s lazy=%v: stop at round 2: %v", name, lazy, err)
			}
			ckpt.Checkpoint = fl.CheckpointOptions{Path: ckpt.Checkpoint.Path, Resume: true}
			if got := mustRun(t, tr.wrapAlgo(newAlgo()), tr.wrapEnv(env), ckpt); got != want {
				t.Errorf("%s lazy=%v: history resumed through the wrapper differs", name, lazy)
			}
		}
	}
}

// bareAlgo forwards only fl.Algorithm: what a careless wrapper does.
type bareAlgo struct{ fl.Algorithm }

// leakySource never returns a lease.
type leakySource struct{ data.ClientSource }

func (leakySource) Release(int) {}

// TestChecksFire shows that the two checks the benchmark leans on
// detect what they are for: a wrapper that hides TransportUser changes
// the history, and a lease that is never released is reported.
func TestChecksFire(t *testing.T) {
	env, cfg := tinyEnv(t, false)
	want := mustRun(t, baselines.NewFedAvg(), env, cfg)
	if got := mustRun(t, bareAlgo{baselines.NewFedAvg()}, env, cfg); got == want {
		t.Error("hiding TransportUser left the history unchanged: the equality check cannot catch a dropped interface")
	}

	fed := *env.Fed
	fed.Source, fed.Clients = leakySource{data.NewMaterialized(fed.Clients)}, nil
	leaky := &fl.Env{Fed: &fed, Model: env.Model}
	h, err := fl.Run(baselines.NewFedAvg(), leaky, cfg)
	p := newPass(workloads[0], 1, false)
	if p.checkRun("leaky", leaky, h, err) || len(p.Failures) != 1 {
		t.Errorf("leaked leases were not reported: %v", p.Failures)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("one sample has spread %v", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "t", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "r", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c * 1.005, c * 0.995} }
	wide := func(c float64) []float64 { return []float64{c * 0.8, c * 0.9, c, c * 1.1, c * 1.2} }
	for _, tc := range []struct {
		name     string
		m        metricSpec
		old, new []float64
		want     string
	}{
		{"within bound", lower, tight(100), tight(105), same},
		{"slower than bound", lower, tight(100), tight(115), worse},
		{"faster than own spread", lower, tight(100), tight(90), better},
		{"rate dropped", higher, tight(100), tight(85), worse},
		{"rate rose", higher, tight(100), tight(120), better},
		{"noisy and overlapping", lower, wide(100), wide(104), unresolved},
		{"noisy but separated", lower, wide(100), wide(200), worse},
		{"exact and equal", lower, []float64{5, 5, 5}, []float64{5, 5, 5}, same},
	} {
		if got := judge(tc.m, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareFiles drives -compare end to end on two result files.
func TestCompareFiles(t *testing.T) {
	write := func(name string, wall float64) string {
		rf := resultFile{}
		for _, w := range workloads {
			for seed := int64(1); seed <= 3; seed++ {
				p := newPass(w, seed, false)
				vals := map[string]float64{}
				for _, m := range endToEnd {
					vals[m.Name] = 1
				}
				vals["setup_s"] = wall * (1 + float64(seed)/1000)
				p.set(endToEnd, vals)
				rf.Passes = append(rf.Passes, p)
			}
		}
		path := filepath.Join(t.TempDir(), name)
		if err := writeJSONFile(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, equal, slow := write("a.json", 1), write("b.json", 1.01), write("c.json", 2)
	if err := compareFiles(io.Discard, base, equal); err != nil {
		t.Errorf("A/A: %v", err)
	}
	var out bytes.Buffer
	if err := compareFiles(&out, base, slow); err == nil {
		t.Errorf("a doubled setup_s passed:\n%s", out.String())
	}
}
