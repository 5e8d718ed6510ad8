package experiments

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"fedcross/internal/data"
)

// microProfile is even smaller than Tiny: for package tests we only need
// the harnesses to execute their logic, not to converge.
func microProfile() Profile {
	return Profile{
		Name:                "micro",
		VisionTrainPerClass: 12, VisionTestPerClass: 4,
		TextSamplesPerClient: 10, TextTestSamples: 40,
		NumClients: 6, ClientsPerRound: 3,
		Rounds: 3, LocalEpochs: 1, BatchSize: 16,
		LR: 0.03, Momentum: 0.5,
		EvalEvery: 1,
		Seeds:     []int64{1},
	}
}

func TestNewAlgorithmAllNames(t *testing.T) {
	for _, name := range AlgorithmNames() {
		algo, err := NewAlgorithm(name)
		if err != nil {
			t.Fatalf("NewAlgorithm(%q): %v", name, err)
		}
		if algo.Name() != name {
			t.Fatalf("algorithm %q reports name %q", name, algo.Name())
		}
	}
	if _, err := NewAlgorithm("nope"); err == nil {
		t.Fatal("unknown algorithm must error")
	}
}

func TestBuildEnvAllDatasets(t *testing.T) {
	p := microProfile()
	for _, ds := range DatasetNames() {
		env, err := p.BuildEnv(ds, "cnn", data.Heterogeneity{Beta: 0.5}, 1)
		if err != nil {
			t.Fatalf("BuildEnv(%q): %v", ds, err)
		}
		if env.NumClients() != p.NumClients {
			t.Fatalf("%s: %d clients, want %d", ds, env.NumClients(), p.NumClients)
		}
		if env.Fed.Test.Len() == 0 {
			t.Fatalf("%s: empty test set", ds)
		}
	}
	if _, err := p.BuildEnv("nope", "cnn", data.Heterogeneity{}, 1); err == nil {
		t.Fatal("unknown dataset must error")
	}
	if _, err := p.BuildEnv("vision10", "nope", data.Heterogeneity{}, 1); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestStatSummary(t *testing.T) {
	s := NewStat([]float64{0.5, 0.7})
	if math.Abs(s.Mean-0.6) > 1e-12 || math.Abs(s.Std-0.1) > 1e-12 || s.N != 2 {
		t.Fatalf("Stat = %+v", s)
	}
	if got := s.String(); got != "60.00 ± 10.00" {
		t.Fatalf("Stat.String = %q", got)
	}
	if z := NewStat(nil); z.N != 0 || z.Mean != 0 {
		t.Fatalf("empty stat %+v", z)
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "T", Header: []string{"a", "bb"}}
	tab.Add("x", "y")
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "bb") || !strings.Contains(out, "x") {
		t.Fatalf("table output:\n%s", out)
	}
}

func TestSeriesRendering(t *testing.T) {
	s := Series{Title: "curves", XLabel: "round", Xs: []int{1, 2},
		Curves: map[string][]float64{"a": {0.1, 0.2}, "b": {0.3}},
		Order:  []string{"a", "b"}}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "0.1000") || !strings.Contains(out, "-") {
		t.Fatalf("series output:\n%s", out)
	}
}

func TestHeatmapRendering(t *testing.T) {
	h := Heatmap{Title: "hm", Counts: [][]int{{0, 5}, {2, 1}}}
	var buf bytes.Buffer
	if _, err := h.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hm") {
		t.Fatal("heatmap missing title")
	}
}

// TestRunTableI: Table I reads each algorithm's own communication profile.
// FedCross costs exactly FedAvg's traffic (the paper's headline overhead
// claim), SCAFFOLD and FedGen strictly more, classed High and Medium.
func TestRunTableI(t *testing.T) {
	var buf bytes.Buffer
	if err := TableI(&buf, 10); err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(buf.String(), "\n")[3:] {
		if f := regexp.MustCompile(`\s{2,}`).Split(strings.TrimSpace(line), -1); len(f) == 5 {
			rows[f[0]] = f[1:]
		}
	}
	if len(rows) != 6 {
		t.Fatalf("Table I has %d method rows, want 6:\n%s", len(rows), buf.String())
	}
	equivalents := func(name string) float64 {
		x, err := strconv.ParseFloat(rows[name][3], 64)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return x
	}
	if equivalents("fedcross") != equivalents("fedavg") || rows["fedcross"][1] != rows["fedavg"][1] {
		t.Fatalf("fedcross %q vs fedavg %q", rows["fedcross"], rows["fedavg"])
	}
	if rows["scaffold"][2] != "High" || rows["fedgen"][2] != "Medium" || rows["fedcross"][2] != "Low" {
		t.Fatalf("overhead classes: %q", rows)
	}
	if equivalents("scaffold") <= equivalents("fedavg") || equivalents("fedgen") <= equivalents("fedavg") {
		t.Fatalf("scaffold and fedgen should cost more than fedavg: %q", rows)
	}
	if rows["fedcross"][0] != "Multi-Model Guided" {
		t.Fatalf("fedcross category %q", rows["fedcross"][0])
	}
	if err := TableI(&buf, 0); err == nil {
		t.Fatal("K=0 must error")
	}
}

// TestRunFig3SkewOrdering: the paper's Figure-3 shape, smaller beta, more
// skew, read from the three panels' titles.
func TestRunFig3SkewOrdering(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig3(&buf, microProfile(), nil); err != nil {
		t.Fatal(err)
	}
	var skew []float64
	for _, m := range regexp.MustCompile(`Dir\(beta=[0-9.]+\), skew=([0-9.]+)`).FindAllStringSubmatch(buf.String(), -1) {
		x, _ := strconv.ParseFloat(m[1], 64)
		skew = append(skew, x)
	}
	if len(skew) != 3 || !strings.Contains(buf.String(), "Dir(beta=0.1)") {
		t.Fatalf("want three Dir(beta) panels:\n%s", buf.String())
	}
	if !(skew[0] > skew[2]) {
		t.Fatalf("skew(beta=0.1)=%v should exceed skew(beta=1.0)=%v", skew[0], skew[2])
	}
}

// TestRunFig4Micro: the fig4 preset over two seeds reads one sharpness per
// seed of every cell, reports each row's FedCross − FedAvg sharpness as
// rowMargin on those readings with a wins/seeds cell, and prints the
// first seed's 2-D scans under the table.
func TestRunFig4Micro(t *testing.T) {
	p := microProfile()
	p.Seeds = []int64{1, 2}
	res := runGrid(t, mlpPreset(t, "fig4", p, []string{"beta", "iid"}))
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if len(res.Cells) != 2 {
		t.Fatalf("cells %+v", res.Cells)
	}
	for _, c := range res.Cells {
		if len(c.Sharpness) != 2 || c.Sharpness[0] == c.Sharpness[1] || c.Scan == nil || len(c.Scan.Xs) != scanRes {
			t.Fatalf("%s: sharpness %v, scan %v", c.Algorithm, c.Sharpness, c.Scan)
		}
		for _, x := range c.Sharpness {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%s: sharpness %v", c.Algorithm, c.Sharpness)
			}
		}
	}
	m, ok := rowMargin(res.Cells, "fedavg", func(c GridCell, si int) float64 { return c.Sharpness[si] }, true)
	row := strings.Split(out, "\n")[3]
	cell := fmt.Sprintf("%+.4f ± %.4f", m.Mean, m.Std)
	if !ok || m.Seeds != 2 || !strings.Contains(row, cell) || !strings.Contains(row, fmt.Sprintf("%d/2 seeds", m.Wins)) {
		t.Fatalf("margin %+v (%s) not in the row %q:\n%s", m, cell, row, out)
	}
	if !strings.Contains(out, "FedCross flatter") || !strings.Contains(out, "# IID: loss around seed 1's final models\nx\ty\tloss_fedavg\tloss_fedcross\n-0.5000\t-0.5000\t") {
		t.Fatalf("fig4 output lacks the margin column or the scan:\n%s", out)
	}
}

func TestProfilesAreValid(t *testing.T) {
	for _, p := range []Profile{TinyProfile(), SmallProfile(), PaperProfile()} {
		if err := p.Config(1).Validate(); err != nil {
			t.Fatalf("profile %s invalid: %v", p.Name, err)
		}
		if p.ClientsPerRound > p.NumClients {
			t.Fatalf("profile %s: K > N", p.Name)
		}
	}
}
