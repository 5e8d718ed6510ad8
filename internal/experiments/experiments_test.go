package experiments

import (
	"bytes"
	"math"
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

func TestRunTableI(t *testing.T) {
	res, err := RunTableI(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("TableI rows = %d, want 6", len(res.Rows))
	}
	byName := map[string]TableIRow{}
	for _, r := range res.Rows {
		byName[r.Algorithm] = r
	}
	// FedCross communication equals FedAvg exactly (the paper's headline
	// overhead claim).
	if byName["fedcross"].ModelEquivalents != byName["fedavg"].ModelEquivalents {
		t.Fatalf("fedcross %v vs fedavg %v model-equivalents",
			byName["fedcross"].ModelEquivalents, byName["fedavg"].ModelEquivalents)
	}
	if byName["scaffold"].Overhead != "High" || byName["fedgen"].Overhead != "Medium" || byName["fedcross"].Overhead != "Low" {
		t.Fatalf("overhead classes: %+v", byName)
	}
	// SCAFFOLD and FedGen cost strictly more than FedAvg.
	if byName["scaffold"].ModelEquivalents <= byName["fedavg"].ModelEquivalents {
		t.Fatal("scaffold should cost more than fedavg")
	}
	if byName["fedgen"].ModelEquivalents <= byName["fedavg"].ModelEquivalents {
		t.Fatal("fedgen should cost more than fedavg")
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Multi-Model Guided") {
		t.Fatal("render missing fedcross category")
	}
	if _, err := RunTableI(0); err == nil {
		t.Fatal("K=0 must error")
	}
}

func TestRunFig3SkewOrdering(t *testing.T) {
	opts := DefaultFig3Options()
	opts.Profile = microProfile()
	res, err := RunFig3(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 3 {
		t.Fatalf("panels = %d", len(res.Panels))
	}
	// The paper's Figure-3 shape: smaller beta, more skew.
	if !(res.Panels[0].SkewScore > res.Panels[2].SkewScore) {
		t.Fatalf("skew(beta=0.1)=%v should exceed skew(beta=1.0)=%v",
			res.Panels[0].SkewScore, res.Panels[2].SkewScore)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Dir(beta=0.1)") {
		t.Fatal("render missing panel title")
	}
}

func TestRunFig4Micro(t *testing.T) {
	opts := DefaultFig4Options()
	opts.Profile = microProfile()
	opts.Model = "mlp"
	opts.Hets = []data.Heterogeneity{{IID: true}}
	opts.Scan.Resolution = 3
	opts.Scan.MaxSamples = 16
	opts.SharpnessDirs = 1
	res, err := RunFig4(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 1 {
		t.Fatalf("panels = %d", len(res.Panels))
	}
	p := res.Panels[0]
	if p.FedAvgGrid == nil || p.FedCrossGrid == nil {
		t.Fatal("missing grids")
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sharpness") {
		t.Fatal("render missing sharpness")
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
