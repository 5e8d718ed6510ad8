package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fedcross/internal/core"
	"fedcross/internal/data"
	"fedcross/internal/fl"
	"fedcross/internal/models"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json, or under -tags fidelity claims.json and README's ledger, from this run")

// goldenCells are the runs testdata/golden.json holds to the bit, three
// rounds each (six for the faulted async cell). A cell is named by the
// keys fedsim -set reads (grid.go's axis table), space-separated, after
// an optional base: none is the tiny profile on vision10 at Dir(0.5)
// under fl.Run; "async/" the same under fl.RunAsync; "integration/" core's
// four-class MLP federation (mlpVision, 16 clients, seed 11) at core's run
// settings. The paper's CNN under both engines; one more engine stream or
// path per MLP cell (the link stream, each adversary, the fault and churn
// plans, a Selector, the stateful baselines, the lazy source with
// lookahead, the async engine's own streams); FedCross's Gram pass,
// selection and cross-aggregation over three K on both wires; the text
// LSTM. The resnet and vgg cells run the zoo's other conv stacks:
// ResNetMini's residual blocks and its one standalone ReLU max pool,
// VGGMini's 8×8 inner convolutions.
var goldenCells = []string{
	"algo=fedcross model=cnn",
	"algo=fedavg model=cnn",
	"algo=fedcross model=resnet",
	"algo=fedavg model=vgg",
	"async/model=cnn buffer=2 inflight=4",
	"algo=fedcross model=mlp codec=int8 net=lte deadline=0.12 retries=1",
	"algo=fedavg model=mlp attack=signflip frac=0.25",
	"algo=fedavg model=mlp attack=labelflip frac=0.25",
	"algo=fedavg model=mlp attack=scale frac=0.25",
	"algo=fedcross model=mlp k=8 codec=int8 net=lte deadline=0.5 retries=1 retrybackoff=0.1 quorum=5 " +
		"faults=crash=0.15,drop=0.3,truncate=0.2,corrupt=0.2,dup=0.3,straggle=0.3,stall=0.5",
	"algo=fedavg model=mlp k=12 churn=avail=0.5,period=4",
	"algo=clusamp model=mlp",
	"algo=scaffold model=mlp",
	"algo=fedgen model=mlp",
	"algo=fedavg model=mlp n=512 prefetch=1",
	"async/model=mlp rounds=6 net=lte attack=signflip frac=0.25 quorum=2 buffer=2 inflight=4 " +
		"faults=crash=0.15,drop=0.15,dup=0.4,straggle=0.3,stall=0.5",
	"integration/k=5 codec=identity",
	"integration/k=5 codec=int8",
	"integration/k=8 codec=identity",
	"integration/k=8 codec=int8",
	"integration/k=12 codec=identity",
	"integration/k=12 codec=int8",
	"algo=fedcross dataset=sent140",
}

// mlpVision is core's integration corpus: four classes of twelve
// features, two modes each.
func mlpVision(seed int64) data.VisionConfig {
	return data.VisionConfig{
		Classes: 4, Features: 12,
		TrainPerClass: 50, TestPerClass: 20,
		ModesPerClass: 2, Sep: 1.2, Noise: 0.35, Seed: seed,
	}
}

// mlpModel is the 276-parameter MLP mlpVision is trained under.
func mlpModel() models.Factory { return models.MLP(12, 16, 4) }

// runGolden runs the named cell.
func runGolden(name string) (*fl.History, error) {
	p := TinyProfile()
	p.Rounds, p.EvalEvery = 3, 1
	c := visionCell(p, "", 0.5)
	base, keys, ok := strings.Cut(name, "/")
	if !ok {
		base, keys = "", name
	}
	switch base {
	case "async":
		c.Async = &fl.AsyncOptions{}
	case "integration":
		c.Profile = Profile{Name: "integration", NumClients: 16, ClientsPerRound: 4, Rounds: 3,
			LocalEpochs: 2, BatchSize: 16, LR: 0.05, Momentum: 0.5, EvalEvery: 1, Seeds: []int64{3}}
		c.Algorithm = "fedcross"
	}
	set := map[string]string{}
	for _, kv := range strings.Fields(keys) {
		k, v, _ := strings.Cut(kv, "=")
		set[k] = v
	}
	if err := c.Apply(set); err != nil {
		return nil, err
	}
	c.resolve()
	seed := firstSeed(c.Profile)
	cfg := c.Profile.Config(seed)
	var env *fl.Env
	var err error
	if base == "integration" {
		env = &fl.Env{Fed: data.BuildVision(mlpVision(11), c.Profile.NumClients, c.Het, 12), Model: mlpModel()}
	} else if env, err = c.Profile.BuildEnv(c.Dataset, c.Model, c.Het, seed); err != nil {
		return nil, err
	}
	if c.Async != nil {
		return fl.RunAsync(env, cfg, *c.Async)
	}
	algo, err := NewAlgorithm(c.Algorithm)
	if c.Algorithm == "fedcross" {
		algo, err = core.New(c.FedCross)
	}
	if err != nil {
		return nil, err
	}
	return fl.Run(algo, env, cfg)
}

// TestGolden holds every goldenCells run to testdata/golden.json, field
// for field, and names each moved cell's first differing round and field.
// A change meant to move histories regenerates the file with
// go test ./internal/experiments -run TestGolden -update
// and the file's diff is what gets reviewed.
func TestGolden(t *testing.T) {
	got := map[string]*fl.History{}
	for _, name := range goldenCells {
		h, err := runGolden(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = h
	}
	path := filepath.Join("testdata", "golden.json")
	if *update {
		raw, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]*fl.History
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for name, w := range want {
		if !slices.Contains(goldenCells, name) {
			t.Errorf("%s holds %q, which no cell runs", path, name)
		} else if d := historyDiff(w, got[name], 0); d != "" {
			t.Errorf("%q moved: %s", name, d)
		}
	}
	for _, name := range goldenCells {
		if want[name] == nil {
			t.Errorf("%q has no golden history; run with -update", name)
		}
	}
}

// historyDiff names the first field where got departs from want — the
// evaluated rounds in order, then the run totals — or returns "". A float
// field may differ by tol relative to its magnitude; tol 0 asks for the
// same bits.
func historyDiff(want, got *fl.History, tol float64) string {
	for i := range min(len(want.Metrics), len(got.Metrics)) {
		if d := firstField(want.Metrics[i], got.Metrics[i], tol); d != "" {
			return fmt.Sprintf("round %d %s", want.Metrics[i].Round, d)
		}
	}
	if len(want.Metrics) != len(got.Metrics) {
		return fmt.Sprintf("%d evaluated rounds, want %d", len(got.Metrics), len(want.Metrics))
	}
	w, g := *want, *got
	w.Metrics, g.Metrics = nil, nil
	return firstField(w, g, tol)
}

// firstField compares two structs of one type field by field.
func firstField(want, got any, tol float64) string {
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := range wv.NumField() {
		w, g := wv.Field(i), gv.Field(i)
		if !reflect.DeepEqual(w.Interface(), g.Interface()) &&
			(w.Kind() != reflect.Float64 || !closeTo(w.Float(), g.Float(), tol)) {
			return fmt.Sprintf("%s: got %v, want %v", wv.Type().Field(i).Name, g, w)
		}
	}
	return ""
}

// closeTo reports whether got lies within tol of want relative to its
// magnitude, or has want's bits.
func closeTo(want, got, tol float64) bool {
	return math.Float64bits(want) == math.Float64bits(got) || tol > 0 && math.Abs(got-want) <= tol*math.Abs(want)
}
