package fedcross

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// goStatementAllowlist names every non-test file under internal/ and cmd/
// that may start a goroutine, each with the reason. A round's fan-outs
// lease their goroutines from fl.Workers through fl's one claim loop;
// anything else that runs concurrently is one of these few.
var goStatementAllowlist = map[string]string{
	"internal/fl/pool.go":    "the one budgeted claim loop every round fan-out runs on",
	"internal/fl/async.go":   "the async engine's trainers, each on a budget token",
	"internal/data/lazy.go":  "the lazy federation's shard prefetch pool",
	"internal/data/build.go": "the Dir(β) assignment overlapping feature generation at setup",
}

// TestGoStatementsAllowlisted keeps the worker budget the only way a round
// fans out: it parses the non-test Go under internal/ and cmd/ and fails
// on a go statement in a file the allowlist does not name, on a listed
// file holding more than one, and on a listed file holding none.
func TestGoStatementsAllowlisted(t *testing.T) {
	found := map[string]int{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					key := filepath.ToSlash(path)
					found[key]++
					if _, listed := goStatementAllowlist[key]; !listed {
						t.Errorf("%s: go statement outside the allowlist; lease workers through fl.Workers instead", fset.Position(g.Pos()))
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for file := range goStatementAllowlist {
		if n := found[file]; n != 1 {
			t.Errorf("%s: %d go statements, the allowlist permits exactly one", file, n)
		}
	}
}

// invarianceProfile sizes the determinism runs: small enough that twelve
// full simulations finish in seconds, large enough that every algorithm
// takes real SGD steps on several clients per round.
func invarianceProfile() Profile {
	p := TinyProfile()
	p.Rounds = 3
	p.EvalEvery = 1
	p.NumClients = 8
	p.ClientsPerRound = 4
	p.VisionTrainPerClass = 16
	p.VisionTestPerClass = 6
	return p
}

// TestParallelismInvariance pins the worker pool's determinism contract:
// for every one of the six algorithms, the same seed produces a
// byte-identical History whether the round engine runs on one worker or
// eight. Per-client RNG streams are split before dispatch, so scheduling
// must never leak into results.
func TestParallelismInvariance(t *testing.T) {
	for _, name := range AlgorithmNames() {
		t.Run(name, func(t *testing.T) {
			histories := make([]*History, 2)
			for i, workers := range []int{1, 8} {
				prof := invarianceProfile()
				prof.Parallelism = workers
				env, err := prof.BuildEnv("vision10", "mlp", Heterogeneity{Beta: 0.5}, 1)
				if err != nil {
					t.Fatal(err)
				}
				algo, err := NewAlgorithm(name)
				if err != nil {
					t.Fatal(err)
				}
				cfg := prof.Config(1)
				cfg.DropoutRate = 0.2 // exercise the dropped-client paths too
				hist, err := Run(algo, env, cfg)
				if err != nil {
					t.Fatal(err)
				}
				histories[i] = hist
			}
			if !reflect.DeepEqual(histories[0], histories[1]) {
				t.Fatalf("%s: history differs between Parallelism=1 and Parallelism=8:\nserial:   %+v\nparallel: %+v",
					name, histories[0], histories[1])
			}
		})
	}
}

// TestTransportParallelismInvariance extends the determinism contract to
// the simulated wire: with a lossy codec, a jittered network and a round
// deadline, every algorithm must still produce a byte-identical History
// at Parallelism=1 and 8 — straggler selection, codec error and byte
// accounting all live in the serial phases of a round.
func TestTransportParallelismInvariance(t *testing.T) {
	for _, name := range AlgorithmNames() {
		t.Run(name, func(t *testing.T) {
			histories := make([]*History, 2)
			for i, workers := range []int{1, 8} {
				prof := invarianceProfile()
				prof.Parallelism = workers
				env, err := prof.BuildEnv("vision10", "mlp", Heterogeneity{Beta: 0.5}, 1)
				if err != nil {
					t.Fatal(err)
				}
				algo, err := NewAlgorithm(name)
				if err != nil {
					t.Fatal(err)
				}
				cfg := prof.Config(1)
				cfg.DropoutRate = 0.2
				cfg.Transport = TransportOptions{Codec: "int8", Network: "lte", DeadlineSec: 2}
				hist, err := Run(algo, env, cfg)
				if err != nil {
					t.Fatal(err)
				}
				histories[i] = hist
			}
			if !reflect.DeepEqual(histories[0], histories[1]) {
				t.Fatalf("%s: lossy-wire history differs between Parallelism=1 and 8:\nserial:   %+v\nparallel: %+v",
					name, histories[0], histories[1])
			}
			if histories[0].TotalBytes() == 0 {
				t.Fatalf("%s: lossy wire moved zero bytes", name)
			}
		})
	}
}

// TestIdentityWireMatchesDefault pins the reference-wire contract: a run
// with explicit codec=identity + net=none is byte-identical to a run with
// the zero-value Transport options (the accounting-only default).
func TestIdentityWireMatchesDefault(t *testing.T) {
	for _, name := range AlgorithmNames() {
		histories := make([]*History, 2)
		for i, explicit := range []bool{false, true} {
			prof := invarianceProfile()
			env, err := prof.BuildEnv("vision10", "mlp", Heterogeneity{Beta: 0.5}, 1)
			if err != nil {
				t.Fatal(err)
			}
			algo, err := NewAlgorithm(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := prof.Config(1)
			if explicit {
				cfg.Transport = TransportOptions{Codec: "identity", Network: "none"}
			}
			hist, err := Run(algo, env, cfg)
			if err != nil {
				t.Fatal(err)
			}
			histories[i] = hist
		}
		if !reflect.DeepEqual(histories[0], histories[1]) {
			t.Fatalf("%s: explicit identity wire differs from the default:\ndefault:  %+v\nexplicit: %+v",
				name, histories[0], histories[1])
		}
		if histories[0].TotalBytes() == 0 {
			t.Fatalf("%s: identity wire reported zero bytes", name)
		}
	}
}

// TestEvaluatePerClientParallelism pins the fairness report's determinism:
// the per-client sweep runs on the pool but must reduce in client order.
func TestEvaluatePerClientParallelism(t *testing.T) {
	prof := invarianceProfile()
	env, err := prof.BuildEnv("vision10", "mlp", Heterogeneity{Beta: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	algo, err := NewFedCross(DefaultFedCrossOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(algo, env, prof.Config(1)); err != nil {
		t.Fatal(err)
	}
	a, err := EvaluatePerClient(env, algo.Global(), 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvaluatePerClient(env, algo.Global(), 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("EvaluatePerClient is not deterministic:\n%+v\n%+v", a, b)
	}
}
