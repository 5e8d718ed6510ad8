//go:build deadcode

package fedcross

// The unreached-code scan. Every non-test function of the repository must
// be linked into at least one shipped binary, or carry a reason in
// unreachedAllowed. The roots are fedsim, tools/pairs, the examples and
// the benchmark harness, built with inlining off (-gcflags=all=-l, so a
// small function keeps its own symbol) at GOARCH amd64 and arm64, with
// and without purego. The linker drops every function no root reaches,
// so a function missing from all the binaries' symbol tables is one no
// binary can run. Run it with
//
//	go test -tags deadcode -count=1 -run TestUnreached .
//
// It fails on an unreached function the allowlist does not name (printed
// as file:line) and on an allowlist entry that a binary now holds or that
// names no function.
//
// Init functions are not checked: they run whenever their package is
// linked. A function in a file that none of the four builds compiles
// (one behind the amd64.v3 tag, say) counts as unreached. A method that
// only satisfies an interface counts as reached as soon as that interface
// method is called anywhere.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// Why a function that no binary reaches stays in the product.
type unreachedReason string

const (
	// api.go's functions, the methods of the types it aliases, and what
	// api.go's wrappers alone call.
	publicAPI unreachedReason = "public API"
	// A portable twin that a gate row or another package's tests call.
	twin unreachedReason = "twin"
	// A reference implementation that tests hold the product to.
	testReference unreachedReason = "test reference"
	// A query of product state that tests assert on.
	testProbe unreachedReason = "test probe"
	// The Backend / Lazy residue that benchmark/ still compiles against
	// (ROADMAP item 3).
	item3 unreachedReason = "item 3"
)

// unreachedAllowed names each unreached function that stays, keyed
// "importpath.Func" or "importpath.Type.Method".
var unreachedAllowed = map[string]unreachedReason{
	"fedcross.CodecByName":      publicAPI,
	"fedcross.CosineMeasure":    publicAPI,
	"fedcross.CosineSimilarity": publicAPI,
	"fedcross.CrossAggr":        publicAPI,
	"fedcross.DatasetNames":     publicAPI,
	"fedcross.DefaultConfig":    publicAPI,
	"fedcross.EuclideanMeasure": publicAPI,
	"fedcross.GlobalModelGen":   publicAPI,
	"fedcross.GridPreset":       publicAPI,
	"fedcross.NetworkByName":    publicAPI,
	"fedcross.NewCluSamp":       publicAPI,
	"fedcross.NewFedGen":        publicAPI,
	"fedcross.NewFedProx":       publicAPI,
	"fedcross.NewSCAFFOLD":      publicAPI,
	"fedcross.PaperMeasure":     publicAPI,
	"fedcross.PaperProfile":     publicAPI,
	"fedcross.ReduceUploads":    publicAPI,
	"fedcross.RunAsync":         publicAPI,
	"fedcross.RunGrid":          publicAPI,
	"fedcross.ScanLandscape":    publicAPI,
	"fedcross.Sharpness":        publicAPI,
	"fedcross.SimilarityByName": publicAPI,
	"fedcross.SmallProfile":     publicAPI,

	"fedcross/internal/core.CrossAggr":                      publicAPI, // behind CrossAggr
	"fedcross/internal/data.Federated.TotalTrainSamples":    publicAPI,
	"fedcross/internal/fl.CommProfile.Bytes":                publicAPI,
	"fedcross/internal/fl.DefaultConfig":                    publicAPI, // behind DefaultConfig
	"fedcross/internal/fl.PerClientReport.BottomDecileMean": publicAPI,
	"fedcross/internal/landscape.Grid.CenterLoss":           publicAPI,
	"fedcross/internal/landscape.Grid.MaxLoss":              publicAPI,
	"fedcross/internal/nn.ParamVector.Lerp":                 publicAPI,

	// internal/theory, through ConvergenceAssumptions (ROADMAP item 14).
	"fedcross/internal/theory.Assumptions.B":                   publicAPI,
	"fedcross/internal/theory.Assumptions.Bound":               publicAPI,
	"fedcross/internal/theory.Assumptions.Lambda":              publicAPI,
	"fedcross/internal/theory.Assumptions.LearningRate":        publicAPI,
	"fedcross/internal/theory.Assumptions.Validate":            publicAPI,
	"fedcross/internal/theory.NewQuadraticFederation":          publicAPI,
	"fedcross/internal/theory.QuadraticFederation.Gamma":       publicAPI,
	"fedcross/internal/theory.QuadraticFederation.GlobalLoss":  publicAPI,
	"fedcross/internal/theory.QuadraticFederation.OptimalLoss": publicAPI,
	"fedcross/internal/theory.QuadraticFederation.RunFedCross": publicAPI,

	"fedcross/internal/tensor.DeltaRangeGo":          twin,
	"fedcross/internal/tensor.DequantAddGo":          twin,
	"fedcross/internal/tensor.DotTileGo":             twin,
	"fedcross/internal/tensor.MaxPool2x2Go":          twin,
	"fedcross/internal/tensor.NarrowPaddedGo":        twin,
	"fedcross/internal/tensor.QuantDeltaGo":          twin,
	"fedcross/internal/tensor.RNG.DirichletIntoGo":   twin,
	"fedcross/internal/tensor.Unpool2x2Go":           twin,
	"fedcross/internal/tensor.UnpoolPaddedGo":        twin,
	"fedcross/internal/tensor.VisionFinishGo":        twin,
	"fedcross/internal/tensor.Winograd.GradParamsGo": twin,
	"fedcross/internal/tensor.Winograd.SetWeightsGo": twin,

	"fedcross/internal/core.CrossAggrAll":           testReference,
	"fedcross/internal/data.Assignment.Materialize": testReference,
	"fedcross/internal/tensor/lowering.Col2ImTo":    testReference,
	"fedcross/internal/tensor/lowering.Im2ColTo":    testReference,

	"fedcross/internal/data.Lazy.WaitPrefetch":  testProbe,
	"fedcross/internal/fl.Adversary.Attackers":  testProbe,
	"fedcross/internal/fl.Adversary.IsAttacker": testProbe,
	"fedcross/internal/fl.WorkerBudget.Cap":     testProbe,
	"fedcross/internal/nn.Conv2D.Vector":        testProbe,
	"fedcross/internal/tensor.Winograd.Vector":  testProbe,

	"fedcross/internal/data.Lazy.Restripe":                item3,
	"fedcross/internal/tensor.GoBackend.Axpy":             item3,
	"fedcross/internal/tensor.GoBackend.GemmBatch":        item3,
	"fedcross/internal/tensor.GoBackend.GemmTransBSegAcc": item3,
	"fedcross/internal/tensor.GoBackend.Scale":            item3,
}

func TestUnreached(t *testing.T) {
	// The main packages of this module, relative to its root; benchmark
	// is a module of its own, built from its directory.
	roots := []string{"./cmd/fedsim", "./tools/pairs"}
	examples, err := filepath.Glob("examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range examples {
		roots = append(roots, "./"+filepath.Dir(m))
	}
	reached := map[string]bool{}
	for _, arch := range []string{"amd64", "arm64"} {
		for _, tags := range []string{"", "purego"} {
			out := t.TempDir()
			build := func(dir string, pkgs ...string) {
				args := append([]string{"build", "-gcflags=all=-l", "-tags=" + tags, "-o", out + "/"}, pkgs...)
				cmd := exec.Command("go", args...)
				cmd.Dir = dir
				cmd.Env = append(os.Environ(), "GOARCH="+arch, "CGO_ENABLED=0")
				if b, err := cmd.CombinedOutput(); err != nil {
					t.Fatalf("GOARCH=%s tags=%q go build %s: %v\n%s", arch, tags, strings.Join(pkgs, " "), err, b)
				}
			}
			build(".", roots...)
			build("benchmark", ".")
			for _, r := range append(roots, "benchmark") {
				symbolsOf(t, filepath.Join(out, filepath.Base(r)), "fedcross/"+strings.TrimPrefix(r, "./"), reached)
			}
			os.RemoveAll(out)
		}
	}

	decls := funcDecls(t)
	var missing []string
	for key, pos := range decls {
		if !reached[key] && unreachedAllowed[key] == "" {
			missing = append(missing, fmt.Sprintf("%s: %s is in no binary and not allowlisted", pos, key))
		}
	}
	self, err := os.ReadFile("deadcode_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for key, why := range unreachedAllowed {
		line := 1 + bytes.Count(self[:bytes.Index(self, []byte(strconv.Quote(key)))], []byte("\n"))
		entry := fmt.Sprintf("deadcode_test.go:%d: allowlist entry %s (%s)", line, key, why)
		pos, declared := decls[key]
		switch {
		case !declared:
			missing = append(missing, entry+" names no function")
		case reached[key]:
			missing = append(missing, fmt.Sprintf("%s is reached (%s); drop the entry", entry, pos))
		}
	}
	slices.Sort(missing)
	for _, m := range missing {
		t.Error(m)
	}
	counts := map[unreachedReason]int{}
	for _, why := range unreachedAllowed {
		counts[why]++
	}
	t.Logf("%d functions, %d allowlisted: %v", len(decls), len(unreachedAllowed), counts)
}

// closureSuffix matches the symbol parts the compiler appends for a
// function's closures and go/defer wrappers.
var closureSuffix = regexp.MustCompile(`^(func|gowrap|deferwrap)?[0-9]+$`)

// symbolsOf adds to reached the key of every text symbol of bin. Symbols
// of package main are keyed under mainPath, the root's import path.
func symbolsOf(t *testing.T, bin, mainPath string, reached map[string]bool) {
	b, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		t.Fatalf("go tool nm %s: %v", bin, err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.SplitN(strings.TrimSpace(line), " ", 3)
		if len(f) != 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		sym := strings.TrimSuffix(strings.TrimSuffix(dropBrackets(f[2]), ".abi0"), "-fm")
		slash := strings.LastIndex(sym, "/")
		dot := strings.Index(sym[slash+1:], ".")
		if dot < 0 {
			continue
		}
		path, rest := sym[:slash+1+dot], sym[slash+2+dot:]
		if path == "main" {
			path = mainPath
		} else if path != "fedcross" && !strings.HasPrefix(path, "fedcross/") {
			continue
		}
		rest = strings.NewReplacer("(*", "", ")", "").Replace(rest)
		parts := strings.Split(rest, ".")
		for len(parts) > 1 && closureSuffix.MatchString(parts[len(parts)-1]) {
			parts = parts[:len(parts)-1]
		}
		reached[path+"."+strings.Join(parts, ".")] = true
	}
}

// dropBrackets removes a generic symbol's instantiation brackets.
func dropBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// funcDecls maps the key of every non-test function of the repository,
// init functions aside, to its file:line.
func funcDecls(t *testing.T) map[string]string {
	decls := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module: benchmark/ is a root, not scanned
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "fedcross"
		if dir := filepath.Dir(path); dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			key := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				key = pkg + "." + receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls[key] = fset.Position(fn.Pos()).String()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// receiverName is the type name of a receiver expression: T, *T, T[P], *T[P].
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}
