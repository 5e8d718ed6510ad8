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
	"internal/data/build.go": "setup-time fan-outs: the lazy build's Dir(β) assignment beside the corpus, each large Dir(β) vector's Gamma draws over GOMAXPROCS parts, and the vision corpus's train draws beside everything else it does",
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

// TestEvaluatePerClientParallelism pins the fairness report's determinism:
// the per-client sweep runs on the pool but must reduce in client order.
func TestEvaluatePerClientParallelism(t *testing.T) {
	prof := TinyProfile()
	prof.Rounds, prof.EvalEvery = 3, 1
	prof.NumClients, prof.ClientsPerRound = 8, 4
	prof.VisionTrainPerClass, prof.VisionTestPerClass = 16, 6
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
