package experiments

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"fedcross/internal/data"
	"fedcross/internal/fl"
)

// The paper's tables, figures and ablations are presets on RunGrid; these
// are the old harnesses' tests with the call and field paths changed.

// microPreset runs the named preset on the micro profile and the MLP with
// the given sweeps, and returns the result beside its rendering.
func microPreset(t *testing.T, name string, sweeps ...[]string) (*GridResult, string) {
	t.Helper()
	res := runGrid(t, mlpPreset(t, name, microProfile(), sweeps...))
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.String()
}

// cellAt returns the cell with the given coordinates.
func cellAt(r *GridResult, coords ...string) (GridCell, bool) {
	for _, c := range r.Cells {
		if slices.Equal(c.Coords, coords) {
			return c, true
		}
	}
	return GridCell{}, false
}

func TestRunTableIISlice(t *testing.T) {
	res, out := microPreset(t, "table2", []string{"beta", "iid"}, []string{"algo", "fedavg", "fedcross"})
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d, want one row of two methods", len(res.Cells))
	}
	lines := strings.Split(out, "\n")
	row := strings.Fields(lines[3])
	if winner := row[len(row)-1]; winner != "fedavg" && winner != "fedcross" {
		t.Fatalf("winner %q in row %q", winner, lines[3])
	}
	if !strings.Contains(out, "vision10") {
		t.Fatal("render missing dataset")
	}
	if wins := lines[4]; wins != "FedCross wins 0 of 1 cells" && wins != "FedCross wins 1 of 1 cells" {
		t.Fatalf("wins line %q", wins)
	}
}

func TestRunTableIITextDataset(t *testing.T) {
	// The model is overridden to lstm and the two heterogeneity settings
	// collapse into the one row a text dataset has.
	res, _ := microPreset(t, "table2", []string{"dataset", "sent140"}, []string{"model", "cnn"}, []string{"algo", "fedavg"})
	if len(res.Cells) != 1 || !slices.Equal(res.Cells[0].Coords, []string{"sent140", "lstm", "-", "fedavg"}) {
		t.Fatalf("text cells %+v", res.Cells)
	}
	// A vision dataset beside it keeps its own rows: three, not four with
	// two mislabelled duplicates.
	res, out := microPreset(t, "table2", []string{"dataset", "vision10", "shakespeare"}, []string{"algo", "fedavg"})
	if len(res.Cells) != 3 {
		t.Fatalf("vision10,shakespeare × 0.5,iid: %d rows, want 3\n%s", len(res.Cells), out)
	}
}

func TestRunTableIII(t *testing.T) {
	res, out := microPreset(t, "table3", []string{"alpha", "0.5", "0.99"}, []string{"strategy", "in-order"})
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	if _, ok := cellAt(res, "0.5", "in-order"); !ok {
		t.Fatal("missing cell 0.5/in-order")
	}
	if _, ok := cellAt(res, "0.7", "in-order"); ok {
		t.Fatal("phantom cell")
	}
	if !strings.Contains(out, "in-order") {
		t.Fatal("render missing strategy column")
	}
	if _, err := RunGrid(mlpPreset(t, "table3", microProfile(), []string{"alpha", "0.3"})); err == nil || !strings.Contains(err.Error(), "[0.5, 1)") {
		t.Fatalf("alpha outside the paper's range: error %v", err)
	}
}

func TestRunFig5Micro(t *testing.T) {
	res, out := microPreset(t, "fig5", []string{"beta", "iid"})
	if strings.Count(out, "Figure 5") != 1 {
		t.Fatalf("want one panel:\n%s", out)
	}
	if len(res.Cells) != 6 || len(res.Cells[0].History().Metrics) == 0 {
		t.Fatalf("curves algos=%d rounds=%d", len(res.Cells), len(res.Cells[0].History().Metrics))
	}
	if !strings.Contains(out, "fedcross") {
		t.Fatal("render missing fedcross curve")
	}
}

func TestRunFig6Micro(t *testing.T) {
	res, _ := microPreset(t, "fig6", []string{"k", "2", "3"})
	if len(res.Cells) != 4 || res.Cells[0].Profile.ClientsPerRound != 2 || res.Cells[3].Profile.ClientsPerRound != 3 {
		t.Fatalf("cells %+v", res.Cells)
	}
	if _, err := RunGrid(mlpPreset(t, "fig6", microProfile(), []string{"k", "2", "7"})); err == nil || !strings.Contains(err.Error(), "N=6") {
		t.Fatalf("K above the population: error %v", err)
	}
}

func TestRunFig7Micro(t *testing.T) {
	res, _ := microPreset(t, "fig7", []string{"n", "6", "12"}, []string{"algo", "fedcross"})
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
}

func TestRunFig8Micro(t *testing.T) {
	res, out := microPreset(t, "fig8", []string{"alpha", "0.9"}, []string{"strategy", "in-order", "lowest-similarity"})
	if strings.Count(out, "Figure 8") != 2 {
		t.Fatalf("want two panels:\n%s", out)
	}
	// The FedAvg reference is one run, drawn first in both panels.
	if res.Reference == nil || res.Reference.Algorithm != "fedavg" || len(res.Reference.Histories) != 1 {
		t.Fatalf("reference %+v", res.Reference)
	}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "round" && !slices.Equal(f, []string{"round", "fedavg", "alpha=0.9"}) {
			t.Fatalf("panel header %q; have\n%s", line, out)
		}
	}
}

func TestRunFig9Micro(t *testing.T) {
	res, out := microPreset(t, "fig9", []string{"beta", "iid"})
	if got := strings.Fields(strings.Split(out, "\n")[1]); !slices.Equal(got, []string{"round", "vanilla", "pm", "da", "pm-da"}) {
		t.Fatalf("variants %v", got)
	}
	if c := res.Cells[1].FedCross; c.AccelRounds != 4 || c.PropellerCount != 2 {
		t.Fatalf("acceleration window %d, propellers %d", c.AccelRounds, c.PropellerCount)
	}
}

func TestRunAblationShuffle(t *testing.T) {
	res, out := microPreset(t, "ablation-shuffle")
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	on, ok := cellAt(res, "on")
	off, ok2 := cellAt(res, "off")
	if !ok || !ok2 || on.FedCross.DisableShuffle || !off.FedCross.DisableShuffle {
		t.Fatalf("shuffle variants %+v", res.Cells)
	}
	if !strings.Contains(out, "Shuffle") {
		t.Fatal("render missing variants")
	}
}

func TestRunAblationSimilarity(t *testing.T) {
	res, _ := microPreset(t, "ablation-similarity")
	for _, v := range []string{"cosine", "paper", "euclidean"} {
		if c, ok := cellAt(res, v); !ok || c.FedCross.Similarity.Name != v {
			t.Fatalf("missing variant %q", v)
		}
	}
	if _, ok := cellAt(res, "nope"); ok {
		t.Fatal("phantom variant")
	}
}

func TestRunAblationPropellerCount(t *testing.T) {
	res, _ := microPreset(t, "ablation-propellers", []string{"propellers", "1", "2"})
	if len(res.Cells) != 2 || res.Cells[1].FedCross.PropellerCount != 2 || res.Cells[1].FedCross.AccelRounds != 1 {
		t.Fatalf("cells %+v", res.Cells)
	}
	if _, err := RunGrid(mlpPreset(t, "ablation-propellers", microProfile(), []string{"propellers"})); err == nil {
		t.Fatal("empty counts must error")
	}
}

// TestRunFig7KCap: the participation cap bounds K for huge N (the table
// reports the K each row used), while small sweeps keep the 10% rule.
func TestRunFig7KCap(t *testing.T) {
	p := TinyProfile()
	p.Rounds = 2
	p.EvalEvery = 1
	res := runGrid(t, mlpPreset(t, "fig7", p, []string{"n", "40", "2000"}, []string{"algo", "fedavg"}))
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(sb.String(), "\n")
	if !strings.Contains(lines[1], "fedavg") {
		t.Fatalf("render missing algorithm column:\n%s", sb.String())
	}
	for i, want := range []string{"4", "100"} {
		row := strings.Fields(lines[3+i])
		if k := row[len(row)-1]; k != want || strconv.Itoa(res.Cells[i].Profile.ClientsPerRound) != want {
			t.Fatalf("row %q: K = %s, want %s", lines[3+i], k, want)
		}
	}
}

// TestRunFig7LazyPopulation drives a full Fig-7 cell over a population
// beyond the lazy cutoff: the scheduler, env cache and engines all run
// against synthesized shards.
func TestRunFig7LazyPopulation(t *testing.T) {
	p := TinyProfile()
	p.Rounds = 2
	p.EvalEvery = 2
	n := LazyClientCutoff + 88
	res := runGrid(t, mlpPreset(t, "fig7", p, []string{"n", strconv.Itoa(n)}, []string{"algo", "fedavg"}))
	c := res.Cells[0]
	if c.Profile.NumClients != n || c.Profile.ClientsPerRound != n/10 {
		t.Fatalf("N = %d, K = %d, want %d and a tenth of it", c.Profile.NumClients, c.Profile.ClientsPerRound, n)
	}
	env, err := c.Profile.BuildEnv(c.Dataset, c.Model, c.Het, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, lazy := env.Fed.Source.(*data.Lazy); !lazy {
		t.Fatalf("the cell's environment is %T, want the lazy source", env.Fed.Source)
	}
	if best := c.History().BestAcc(); best < 0 || best > 1 {
		t.Fatalf("best accuracy %v out of range", best)
	}
}

// TestGridStatOverSeeds: a stat cell over seeds {1, 2} is NewStat of the
// two single-seed finals.
func TestGridStatOverSeeds(t *testing.T) {
	run := func(preset string, sweeps [][]string, seeds ...int64) (*GridResult, error) {
		p := microProfile()
		p.Seeds = seeds
		return RunGrid(mlpPreset(t, preset, p, sweeps...))
	}
	cell := [][]string{{"beta", "0.5"}, {"algo", "fedcross"}}
	final := func(seeds ...int64) GridCell {
		res, err := run("table2", cell, seeds...)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cells[0]
	}
	both := final(1, 2)
	if len(both.Histories) != 2 {
		t.Fatalf("%d histories for two seeds", len(both.Histories))
	}
	want := NewStat([]float64{final(1).History().Final().TestAcc, final(2).History().Final().TestAcc})
	if got := both.Stat(); math.Float64bits(got.Mean) != math.Float64bits(want.Mean) || math.Float64bits(got.Std) != math.Float64bits(want.Std) || got.N != 2 {
		t.Fatalf("Stat over {1,2} = %+v, want %+v", got, want)
	}
	if _, err := run("table2", cell); err == nil {
		t.Fatal("a stat grid with no seeds must error")
	}
	// A first-seed measure ignores the rest of the list.
	res, err := run("fig6", [][]string{{"k", "2"}}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells[0].Histories) != 1 || fmt.Sprint(res.Seeds()) != "[2]" {
		t.Fatalf("fig6 over seeds {2, 1} ran %v", res.Seeds())
	}
}

// TestFidelityPresetMargin: the fidelity preset scores on at least 100
// test samples per class over at least five seeds, and its margin columns
// are rowMargin against fedavg — the difference of the two stats, the
// pooled std, and the seeds on which FedCross finished strictly ahead.
// rowMargin takes any baseline the row runs; a row without fedavg prints
// dashes, and on a lower-is-better value FedCross wins where it is lower.
func TestFidelityPresetMargin(t *testing.T) {
	hand := func(fc, fb GridCell) marginStat {
		a, b := fc.Stat(), fb.Stat()
		m := marginStat{Mean: a.Mean - b.Mean, Std: math.Sqrt((a.Std*a.Std + b.Std*b.Std) / 2), Seeds: len(fc.Histories)}
		for i := range fc.Histories {
			if fc.Histories[i].Final().TestAcc > fb.Histories[i].Final().TestAcc {
				m.Wins++
			}
		}
		return m
	}
	res, out := microPreset(t, "fidelity", []string{"beta", "0.5"})
	fa, ok := cellAt(res, "0.5", "fedavg")
	fc, ok2 := cellAt(res, "0.5", "fedcross")
	if !ok || !ok2 || len(res.Cells) != 2 {
		t.Fatalf("cells %+v", res.Cells)
	}
	if p := fa.Profile; p.VisionTestPerClass != 100 || !slices.Equal(p.Seeds, []int64{1, 2, 3, 4, 5}) || len(fa.Histories) != 5 {
		t.Fatalf("fidelity runs %d test samples per class on seeds %v", p.VisionTestPerClass, p.Seeds)
	}
	m, ok := rowMargin(res.Cells, "fedavg", finalAcc, false)
	if want := hand(fc, fa); !ok || m != want {
		t.Fatalf("margin %+v, want %+v", m, want)
	}
	row := strings.Split(out, "\n")[3]
	if !strings.Contains(out, "FedCross − FedAvg (pts)") || !strings.Contains(row, m.String()) || !strings.Contains(row, fmt.Sprintf("%d/5 seeds", m.Wins)) {
		t.Fatalf("margin %s, %d wins not in the table:\n%s", m, m.Wins, out)
	}

	p := microProfile()
	p.Seeds = []int64{1, 2, 3, 4, 5, 6}
	res, out = microPreset(t, "fidelity", []string{"beta", "iid"}, []string{"algo", "fedprox", "fedcross"})
	if m, ok := rowMargin(res.Cells, "fedprox", finalAcc, false); !ok || m != hand(res.Cells[1], res.Cells[0]) {
		t.Fatalf("margin over fedprox %+v, want %+v", m, hand(res.Cells[1], res.Cells[0]))
	}
	if _, ok := rowMargin(res.Cells, "fedavg", finalAcc, false); ok {
		t.Fatal("a row without fedavg has a margin over it")
	}
	if f := strings.Fields(strings.Split(out, "\n")[3]); f[len(f)-1] != "-" || f[len(f)-2] != "-" {
		t.Fatalf("margin columns of a row without fedavg: %q", f)
	}
	if g, err := GridPreset("fidelity", p); err != nil || len(g.Seeds()) != 6 {
		t.Fatalf("a profile with six seeds runs %v (%v), want all six", g.Seeds(), err)
	}

	sharp := []GridCell{{Cell: Cell{Algorithm: "fedavg"}, Histories: make([]*fl.History, 3), Sharpness: []float64{2, 1, 3}},
		{Cell: Cell{Algorithm: "fedcross"}, Histories: make([]*fl.History, 3), Sharpness: []float64{1, 2, 0}}}
	if m, ok := rowMargin(sharp, "fedavg", func(c GridCell, si int) float64 { return c.Sharpness[si] }, true); !ok || m.Mean != -1 || m.Wins != 2 || m.Seeds != 3 {
		t.Fatalf("sharpness margin %+v, want FedCross lower by 1 and ahead on 2 of 3 seeds", m)
	}
	// A diverged run finishes behind one that did not and leaves the mean:
	// on the first seed only the baseline diverged (a FedCross win), on the
	// last only FedCross (not a win), so the mean is the second seed's.
	sharp[0].Diverged, sharp[1].Diverged = []int{7, 0, 0}, []int{0, 0, 9}
	if m, ok := rowMargin(sharp, "fedavg", func(c GridCell, si int) float64 { return c.Sharpness[si] }, true); !ok || m != (marginStat{Mean: 1, Wins: 1, Seeds: 3}) {
		t.Fatalf("sharpness margin with diverged runs %+v, want FedCross higher by 1 and ahead on 1 of 3 seeds", m)
	}
}

// finalAcc is the margin measure's per-seed value: the run's final
// accuracy.
func finalAcc(c GridCell, si int) float64 { return c.Histories[si].Final().TestAcc }

// presetNames lists every preset.
func presetNames() []string { return slices.Sorted(maps.Keys(gridPresets())) }
