package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fedcross/internal/core"
	"fedcross/internal/fl"
	"fedcross/internal/landscape"
	"fedcross/internal/tensor"
)

// mlpPreset is the named preset on the MLP — as the model axis's one value
// where the preset sweeps it, as the base cell's model elsewhere: the
// package tests need the runner's logic, not the CNN. Each sweep entry is
// an axis name followed by the values to put on it.
func mlpPreset(t *testing.T, name string, p Profile, sweeps ...[]string) Grid {
	t.Helper()
	g, err := GridPreset(name, p)
	if err != nil {
		t.Fatal(err)
	}
	if g.Sweep("model", "mlp") != nil {
		g.Base.Model = "mlp"
	}
	for _, s := range sweeps {
		if err := g.Sweep(s[0], s[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func runGrid(t *testing.T, g Grid) *GridResult {
	t.Helper()
	res, err := RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// gridAt adapts a preset to the Jobs-determinism harness.
func gridAt(t *testing.T, name string, sweeps ...[]string) func(p Profile) (renderable, error) {
	return func(p Profile) (renderable, error) { return RunGrid(mlpPreset(t, name, p, sweeps...)) }
}

// commProfile sizes the sweep for a fast test: a few rounds of the tiny
// environment per codec.
func commProfile() Profile {
	p := TinyProfile()
	p.Rounds = 2
	p.EvalEvery = 1
	p.NumClients = 6
	p.ClientsPerRound = 3
	p.VisionTrainPerClass = 10
	p.VisionTestPerClass = 4
	return p
}

func totalMB(h *fl.History) float64 { return float64(h.TotalBytes()) / (1 << 20) }

// TestCommCurve pins the sweep's structure: one curve per codec, strictly
// increasing cumulative traffic, identity moving the most bytes and every
// lossy codec strictly fewer — the whole point of the wire.
func TestCommCurve(t *testing.T) {
	g := mlpPreset(t, "comm", commProfile())
	res := runGrid(t, g)
	if len(res.Cells) != len(g.Axes[0].Values) {
		t.Fatalf("%d curves for %d codecs", len(res.Cells), len(g.Axes[0].Values))
	}
	var identityMB float64
	for _, c := range res.Cells {
		codec := c.Coords[0]
		if len(c.History().Metrics) == 0 {
			t.Fatalf("codec %s: no evaluated points", codec)
		}
		prev := 0.0
		for _, m := range c.History().Metrics {
			cum := float64(m.CumBytesDown+m.CumBytesUp) / (1 << 20)
			if cum <= prev {
				t.Fatalf("codec %s: cumulative MB not increasing: %v", codec, c.History().Metrics)
			}
			prev = cum
		}
		if codec == "identity" {
			identityMB = totalMB(c.History())
		}
	}
	if identityMB == 0 {
		t.Fatal("identity curve missing or moved zero bytes")
	}
	for _, c := range res.Cells {
		if mb := totalMB(c.History()); c.Coords[0] != "identity" && mb >= identityMB {
			t.Fatalf("lossy codec %s moved %v MB, identity %v — compression had no effect", c.Coords[0], mb, identityMB)
		}
	}
	if err := res.Render(io.Discard); err != nil {
		t.Fatal(err)
	}

	// The codec axis sets the codec and nothing else: the profile's retry
	// settings reach the wire (the old harness rebuilt the transport
	// options and dropped them).
	for _, retries := range []int{3, 0} {
		p := commProfile()
		p.Faults = fl.FaultOptions{DropRate: 0.5}
		p.Retries = retries
		got := runGrid(t, mlpPreset(t, "comm", p, []string{"codec", "int8"})).Cells[0].History().Retries
		if (got > 0) != (retries > 0) {
			t.Fatalf("Profile.Retries=%d under 50%% drops: history records %d retries", retries, got)
		}
	}
}

// TestCommCurveDeadline pins straggler surfacing through the harness: an
// edge network with a tight deadline must report stragglers in at least
// one curve, and the runs must stay deterministic.
func TestCommCurveDeadline(t *testing.T) {
	p := commProfile()
	p.Network = "edge"
	p.DeadlineSec = 0.5
	g := mlpPreset(t, "comm", p, []string{"codec", "identity"})
	a, b := runGrid(t, g), runGrid(t, g)
	if a.Cells[0].History().Stragglers != b.Cells[0].History().Stragglers {
		t.Fatalf("straggler count not deterministic: %d vs %d", a.Cells[0].History().Stragglers, b.Cells[0].History().Stragglers)
	}
	if a.Cells[0].History().Stragglers == 0 {
		t.Fatal("edge network with 0.5 s deadline produced no stragglers")
	}
}

// TestRobustGridDeterminism: the robust and async grids are bit-identical
// at Jobs=1 and Jobs=4, the same render-bytes invariant every other grid
// holds — and at Parallelism 1 and 8 inside the cells.
func TestRobustGridDeterminism(t *testing.T) {
	grids := map[string]func(p Profile) (renderable, error){
		"robust": gridAt(t, "robust", []string{"frac", "0", "0.25"}, []string{"reducer", "mean", "median", "krum"}),
		"async":  gridAt(t, "async", []string{"buffer", "2", "4"}, []string{"inflight", "3"}),
	}
	for name, run := range grids {
		serial := renderAtJobs(t, 1, func(p Profile) (renderable, error) { p.Parallelism = 1; return run(p) })
		wide := renderAtJobs(t, 4, func(p Profile) (renderable, error) { p.Parallelism = 8; return run(p) })
		if !bytes.Equal(serial, wide) {
			t.Fatalf("%s: Jobs=1 vs Jobs=4 renders differ:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s",
				name, serial, wide)
		}
	}
}

// TestRobustProfileWiring: profile-level reducer/attack settings reach the
// run config — an unknown reducer name fails pre-flight, and a valid grid
// carries the attacker population it claims.
func TestRobustProfileWiring(t *testing.T) {
	if err := ValidateReducer("krum:2"); err != nil {
		t.Fatal(err)
	}
	if err := ValidateReducer("nonsense"); err == nil {
		t.Fatal("bad reducer names must fail pre-flight")
	}
	p := microProfile()
	p.Reducer = "median"
	p.Attack = "signflip"
	p.AttackFrac = 0.25
	cfg := p.Config(1)
	if cfg.Reducer == nil || cfg.Reducer.Name() != "median" {
		t.Fatalf("reducer not wired: %+v", cfg.Reducer)
	}
	if cfg.Adversary.Attack != "signflip" || cfg.Adversary.Frac != 0.25 {
		t.Fatalf("adversary not wired: %+v", cfg.Adversary)
	}
	res := runGrid(t, mlpPreset(t, "robust", microProfile(), []string{"frac", "0.5"}, []string{"reducer", "median"}))
	cell := res.Cells[0]
	adv := fl.NewAdversary(cell.Profile.Config(1).Adversary, cell.Profile.NumClients, tensor.NewRNG(1))
	if got := len(adv.Attackers()); got != 3 { // round(0.5·6)
		t.Fatalf("attacker count %d, want 3", got)
	}
	if _, err := RunGrid(mlpPreset(t, "robust", microProfile(), []string{"reducer", "nope"})); err == nil {
		t.Fatal("unknown reducer in the sweep must fail before any cell runs")
	}
}

// TestRobustAccuracyFloor is the PR's acceptance gate: at 20% sign-flip
// attackers (K=10 cohorts, so rank-based rules can actually outvote the
// worst hypergeometric draw), Krum and the heavily-trimmed mean hold at
// least 90% of their benign accuracy while the plain mean collapses
// below half of its own. Fixed seed, deterministic engine — these are
// exact reproducible numbers, not a statistical bound.
func TestRobustAccuracyFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell training grid")
	}
	if raceEnabled {
		t.Skip("fixed-seed numeric gate; race coverage comes from TestRobustGridDeterminism")
	}
	p := TinyProfile()
	p.ClientsPerRound = 10
	p.Rounds = 24
	p.EvalEvery = 0 // final-only eval; training streams are unaffected
	g, err := GridPreset("robust", p)
	if err != nil {
		t.Fatal(err)
	}
	reducers := []string{"mean", "trimmed:0.4", "krum"}
	if err := g.Sweep("reducer", reducers...); err != nil {
		t.Fatal(err)
	}
	res := runGrid(t, g) // frac 0, 0.2 by default
	retention := func(j int) (benign, attacked, ret float64) {
		b, a := res.Cells[j].History().Final().TestAcc, res.Cells[len(reducers)+j].History().Final().TestAcc
		return b, a, res.Retention(len(reducers) + j)
	}
	if b, a, ret := retention(0); ret >= 0.5 {
		t.Fatalf("mean should collapse under 20%% sign-flip: benign %v, attacked %v (retention %v)", b, a, ret)
	}
	for j, name := range reducers {
		if j == 0 {
			continue
		}
		if b, a, ret := retention(j); ret < 0.9 {
			t.Fatalf("%s should hold ≥90%% of benign accuracy: benign %v, attacked %v (retention %v)", name, b, a, ret)
		}
	}
	// One table, the fraction its first column, each reducer's retention
	// against its own benign row.
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	if got := strings.Fields(lines[1]); !reflect.DeepEqual(got, []string{"Frac", "Reducer", "Final", "acc", "Best", "acc", "Retention"}) {
		t.Fatalf("robust header %q", lines[1])
	}
	if row := strings.Fields(lines[3]); row[0] != "0.00" || row[1] != "mean" || row[4] != "-" {
		t.Fatalf("benign mean row %q", lines[3])
	}
	if row := strings.Fields(lines[6]); row[0] != "0.20" || row[1] != "mean" || row[4] == "-" {
		t.Fatalf("attacked mean row %q", lines[6])
	}
}

// TestFaultGridRetentionAndDeterminism: the fault sweep runs end to end
// on the micro profile, its level-0 cell anchors the retention column,
// faulted cells actually fire faults, and the grid render is
// bit-identical at Jobs=1 and Jobs=4.
func TestFaultGridRetentionAndDeterminism(t *testing.T) {
	levels := []string{"level", "0", "0.2"}
	run := gridAt(t, "faults", levels)
	serial := renderAtJobs(t, 1, run)
	wide := renderAtJobs(t, 4, run)
	if !bytes.Equal(serial, wide) {
		t.Fatalf("fault grid: Jobs=1 vs Jobs=4 renders differ:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s", serial, wide)
	}

	res := runGrid(t, mlpPreset(t, "faults", microProfile(), levels))
	if len(res.Cells) != 2 {
		t.Fatalf("want 2 cells, got %d", len(res.Cells))
	}
	benign, faulted := res.Cells[0].History(), res.Cells[1].History()
	if benign.Crashes+benign.FaultDrops+benign.Retries+benign.Stalls != 0 {
		t.Fatalf("level 0 must stay fault-free: %+v", benign)
	}
	if faulted.Crashes == 0 && faulted.FaultDrops == 0 && faulted.Stalls == 0 {
		t.Fatalf("level 0.2 fired no faults: %+v", faulted)
	}
	if ret := res.Retention(1); ret <= 0 {
		t.Fatalf("retention at level 0.2 must be positive, got %v", ret)
	}
	if res.Retention(0) != 1 {
		t.Fatalf("retention at level 0 must be exactly 1, got %v", res.Retention(0))
	}

	// The level axis writes the seven rates and nothing else: the
	// profile's straggle factor survives (the old harness replaced
	// Profile.Faults whole), so a 50× slowdown misses a deadline a 2×
	// one meets.
	stragglers := func(factor float64) int {
		p := microProfile()
		p.Network = "lte"
		p.DeadlineSec = 2
		p.Faults.StraggleFactor = factor
		return runGrid(t, mlpPreset(t, "faults", p, []string{"level", "0.3"})).Cells[0].History().Stragglers
	}
	if slow, fast := stragglers(50), stragglers(2); slow == fast {
		t.Fatalf("StraggleFactor 50 and 2 both record %d stragglers: the level axis dropped Profile.Faults", slow)
	}
}

// TestChurnGridBaselineAndTelemetry: availability 1 is the benign anchor
// (no churn telemetry), lower availabilities lose selection slots, and
// the sweep is deterministic across cell parallelism.
func TestChurnGridBaselineAndTelemetry(t *testing.T) {
	avails := []string{"avail", "1", "0.3"}
	run := gridAt(t, "churn", avails)
	serial := renderAtJobs(t, 1, run)
	wide := renderAtJobs(t, 4, run)
	if !bytes.Equal(serial, wide) {
		t.Fatalf("churn grid: Jobs=1 vs Jobs=4 renders differ:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s", serial, wide)
	}

	res := runGrid(t, mlpPreset(t, "churn", microProfile(), avails))
	if len(res.Cells) != 2 {
		t.Fatalf("want 2 cells, got %d", len(res.Cells))
	}
	if res.Cells[0].History().Unavailable != 0 {
		t.Fatalf("availability 1 must lose no slots: %+v", res.Cells[0].History())
	}
	if res.Cells[1].History().Unavailable == 0 {
		t.Fatalf("availability 0.3 must lose slots: %+v", res.Cells[1].History())
	}

	// The avail axis sets the availability and nothing else: the
	// profile's diurnal period survives (the old harness rebuilt the
	// churn options without it).
	at := func(period int) *fl.History {
		p := microProfile()
		p.Rounds = 6
		p.Churn.PeriodRounds = period
		return runGrid(t, mlpPreset(t, "churn", p, []string{"avail", "0.4"})).Cells[0].History()
	}
	if reflect.DeepEqual(at(2), at(7)) {
		t.Fatal("Churn.PeriodRounds 2 and 7 give one history: the avail axis dropped Profile.Churn")
	}
}

// TestGridAxisErrors: a bad value, an axis the grid does not sweep and an
// unknown name each fail before any cell runs, naming what was wanted.
func TestGridAxisErrors(t *testing.T) {
	for _, tc := range []struct {
		preset string
		sweep  []string
		want   string
	}{
		{"faults", []string{"level", "0", "1.5"}, "CrashRate"},
		{"faults", []string{"level", "0,1"}, "bad number"},
		{"churn", []string{"avail", "2"}, "Availability"},
		{"robust", []string{"frac", "1"}, "fraction"},
		{"async", []string{"buffer", "0"}, "positive integer"},
		{"comm", []string{"codec", "zip"}, "zip"},
		{"comm", []string{"codec"}, "no values"},
	} {
		_, err := RunGrid(mlpPreset(t, tc.preset, microProfile(), tc.sweep))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %v: error %v, want one naming %q", tc.preset, tc.sweep, err, tc.want)
		}
	}
	g := mlpPreset(t, "robust", microProfile())
	if err := g.Sweep("level", "0"); err == nil || !strings.Contains(err.Error(), "frac") {
		t.Errorf("sweeping an undeclared axis: error %v, want one listing the grid's axes", err)
	}
	if _, err := NewAxis("nope"); err == nil || !strings.Contains(err.Error(), "codec") {
		t.Errorf("unknown axis: error %v, want one listing the table", err)
	}
	if _, err := GridPreset("nope", microProfile()); err == nil {
		t.Error("unknown preset must error")
	}
}

// TestValidatorsRefuseNaN: NaN in any float64 field of a run's options,
// nested ones included, fails Validate. Every -set value reaches a run
// through one of these, and a range written x < lo || x > hi is false
// for NaN.
func TestValidatorsRefuseNaN(t *testing.T) {
	for _, base := range []interface{ Validate() error }{TinyProfile().Config(1), fl.AsyncOptions{}, core.DefaultOptions(),
		fl.PrivacyOptions{}, landscape.Options{Resolution: 9, Radius: 0.5}} {
		opts := reflect.New(reflect.TypeOf(base)).Elem()
		opts.Set(reflect.ValueOf(base))
		validate := func() error { return opts.Interface().(interface{ Validate() error }).Validate() }
		if err := validate(); err != nil {
			t.Fatalf("%T: %v", base, err)
		}
		var walk func(v reflect.Value, path string)
		walk = func(v reflect.Value, path string) {
			for i := range v.NumField() {
				f, name := v.Field(i), path+"."+v.Type().Field(i).Name
				switch f.Kind() {
				case reflect.Struct:
					walk(f, name)
				case reflect.Float64:
					old := f.Float()
					f.SetFloat(math.NaN())
					if validate() == nil {
						t.Errorf("%s = NaN validates", name)
					}
					f.SetFloat(old)
				}
			}
		}
		walk(opts, fmt.Sprintf("%T", base))
	}
}

// TestGridRoundsAxis: rounds is an optional axis — table3 reads it only
// when Sweep names it, outermost, and each cell then runs that many
// rounds, the cell at the profile's own count being the run the grid
// makes without the axis; a grid that does not list it refuses it.
func TestGridRoundsAxis(t *testing.T) {
	p := microProfile()
	sweeps := [][]string{{"alpha", "0.9"}, {"strategy", "in-order", "lowest-similarity"}}
	plain := runGrid(t, mlpPreset(t, "table3", p, sweeps...))
	if got := plain.Axes[0].Name; got != "alpha" {
		t.Fatalf("unswept, table3's first axis is %q, want alpha", got)
	}
	res := runGrid(t, mlpPreset(t, "table3", p, append(sweeps, []string{"rounds", "1", "3"})...))
	if got := res.Axes[0].Name; got != "rounds" || len(res.Cells) != 4 {
		t.Fatalf("swept: first axis %q over %d cells, want rounds over 4", got, len(res.Cells))
	}
	for i, c := range res.Cells {
		if got, want := c.History().Final().Round, []int{1, 1, 3, 3}[i]; got != want {
			t.Errorf("cell %v: last evaluated round %d, want %d", c.Coords, got, want)
		}
	}
	for i, c := range plain.Cells { // p.Rounds is 3
		if !reflect.DeepEqual(c.Histories, res.Cells[2+i].Histories) {
			t.Errorf("cell %v: rounds=3 through the axis differs from the profile's own 3 rounds", c.Coords)
		}
	}
	var out bytes.Buffer
	if err := res.Render(&out); err != nil || !strings.Contains(out.String(), "Rounds") {
		t.Errorf("rendered table has no Rounds column (err %v):\n%s", err, out.String())
	}
	g := mlpPreset(t, "fig8", p)
	if err := g.Sweep("rounds", "2"); err == nil || !strings.Contains(err.Error(), "alpha") {
		t.Errorf("fig8 swept over rounds: error %v, want one listing the axes it reads", err)
	}
	if _, err := RunGrid(mlpPreset(t, "fig6", p, []string{"rounds", "0"})); err == nil || !strings.Contains(err.Error(), "positive integer") {
		t.Errorf("rounds=0: error %v, want a bad positive integer", err)
	}
}

// TestConfigure: a setting reaches the profile before the preset takes
// its defaults, a set value beats a preset default, a setting on a swept
// axis narrows it, and a grid reads only keys whose setting its cells run.
func TestConfigure(t *testing.T) {
	configure := func(name string, set map[string]string) (Grid, []string) {
		t.Helper()
		g, unread, err := Configure(name, microProfile(), nil, set)
		if err != nil {
			t.Fatal(err)
		}
		return g, unread
	}
	if g, _ := configure("faults", map[string]string{"n": "20", "k": "10"}); g.Base.Profile.MinUploads != 5 || g.Base.Profile.Retries != 2 {
		t.Errorf("faults with K=10: quorum %d, retries %d, want 5 and 2", g.Base.Profile.MinUploads, g.Base.Profile.Retries)
	}
	if g, _ := configure("faults", map[string]string{"quorum": "0", "retries": "0"}); g.Base.Profile.MinUploads != 0 || g.Base.Profile.Retries != 0 {
		t.Errorf("faults with quorum and retries set to 0 kept %d and %d", g.Base.Profile.MinUploads, g.Base.Profile.Retries)
	}
	if g, _ := configure("async", map[string]string{"k": "3"}); !slices.Equal(g.Axes[1].Values, []string{"3", "6"}) {
		t.Errorf("async with K=3 sweeps in-flight %v, want 3, 6", g.Axes[1].Values)
	}
	if g, _ := configure("fig6", map[string]string{"k": "2"}); !slices.Equal(g.Axes[0].Values, []string{"2"}) {
		t.Errorf("fig6 with k=2 sweeps K over %v, want 2", g.Axes[0].Values)
	}
	if g, _ := configure("table3", map[string]string{"rounds": "2"}); g.axis("rounds") >= 0 || g.Base.Profile.Rounds != 2 {
		t.Errorf("table3 with rounds=2: axes %v, base rounds %d", g.Sweeps(), g.Base.Profile.Rounds)
	}
	for _, tc := range []struct {
		preset string
		set    map[string]string
		unread []string
	}{
		{"fig7", map[string]string{"k": "2", "n": "6"}, []string{"k"}},
		{"table2", map[string]string{"staleexp": "0.9", "buffer": "2", "codec": "int8"}, []string{"buffer", "staleexp"}},
		{"async", map[string]string{"algo": "fedcross", "reducer": "krum", "quorum": "1"}, []string{"algo", "reducer"}},
		{"robust", map[string]string{"alpha": "0.9"}, []string{"alpha"}},
		{"robust", map[string]string{"algo": "fedcross", "alpha": "0.9"}, nil},
		{"comm", map[string]string{"colour": "red"}, []string{"colour"}},
	} {
		if _, unread := configure(tc.preset, tc.set); !slices.Equal(unread, tc.unread) {
			t.Errorf("%s %v: unread %v, want %v", tc.preset, tc.set, unread, tc.unread)
		}
	}
}

// TestRunGridRecordsDivergedRuns: a run whose global model leaves the
// finite range does not stop the grid. At a learning rate of 1e100 the
// micro profile's SCAFFOLD and FedCross runs diverge by round 2 and
// FedAvg's, whose uploads the mean reducer screens, do not. Every run
// still ends: a diverged seed keeps no history and its cell records the
// round of the evaluation that caught it, and RunGrid returns the result
// with an error naming each diverged run. The fidelity grid's margin
// measure evaluates once, after the last round, so it records round 3;
// fig5's curve measure evaluates every round and records round 2.
func TestRunGridRecordsDivergedRuns(t *testing.T) {
	p := microProfile()
	p.LR = 1e100
	algos := []string{"algo", "fedavg", "scaffold", "fedcross"}
	for _, tc := range []struct {
		preset string
		axis   []string
		round  int
	}{
		{"fidelity", []string{"beta", "0.5"}, p.Rounds},
		{"fig5", []string{"beta", "0.5"}, 2},
	} {
		res, err := RunGrid(mlpPreset(t, tc.preset, p, tc.axis, algos))
		if res == nil {
			t.Fatalf("%s: no result: %v", tc.preset, err)
		}
		if d := (*fl.DivergedError)(nil); !errors.As(err, &d) || d.Round != tc.round {
			t.Fatalf("%s: error %v, want one carrying a run diverged by round %d", tc.preset, err, tc.round)
		}
		seeds := res.Seeds()
		for _, c := range res.Cells {
			for si, r := range c.Diverged {
				name := fmt.Sprintf("grid cell %s, seed %d: ", strings.Join(res.labels(c), " "), seeds[si])
				if c.Algorithm == "fedavg" {
					if r != 0 || c.Histories[si] == nil || strings.Contains(err.Error(), name) {
						t.Fatalf("%s: fedavg seed %d: diverged %d, history %v, named in %q", tc.preset, seeds[si], r, c.Histories[si], err)
					}
				} else if r != tc.round || c.Histories[si] != nil || !strings.Contains(err.Error(), name) {
					t.Fatalf("%s: %s seed %d: diverged %d, history %v, want round %d named in %q",
						tc.preset, c.Algorithm, seeds[si], r, c.Histories[si], tc.round, err)
				}
			}
		}
		if m, ok := rowMargin(res.Cells, "fedavg", finalAcc, false); !ok || m != (marginStat{Seeds: len(seeds)}) {
			t.Fatalf("%s: margin of a diverged FedCross over FedAvg %+v, want no wins and no mean", tc.preset, m)
		}
	}
}
