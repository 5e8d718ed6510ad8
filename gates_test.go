package fedcross

// The kernel ratio gates, one row per reading. A row times a kernel
// against its scalar twin, or against the path it replaced, in this
// process with the two sides alternated, so the runner's speed cancels
// and no ns/op is gated. The reading is the reference's fastest run over
// the kernel's fastest run, and a row fails below its bound.
//
// Plain `go test ./...` builds every row's operands, makes the checks its
// setup makes (equal bits wherever the two sides must agree) and runs each
// side once, timing nothing. The timing lane is
//
//	go test -tags gates -count=1 -run TestGates -v .
//
// which prints one JSON line per row (gateLine) and fails on a row below
// its bound. Rows marked amd64Only report skipped under purego and off
// amd64, where both sides run the scalar twins; the fan-out row reports
// skipped on one CPU.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fedcross/internal/core"
	"fedcross/internal/data"
	"fedcross/internal/fl"
	"fedcross/internal/models"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
	"fedcross/internal/tensor/lowering"
)

// gate is one row of the table.
type gate struct {
	name string
	// setup builds the operands, checks what must hold before anything is
	// timed, and returns the reference side and the kernel side. A side
	// may call t.Fatal: the driver runs it on the test's goroutine.
	setup      func(t testing.TB) (ref, kernel func())
	reps, runs int // a run times reps calls of one side
	bound      float64
	amd64Only  bool // under purego or off amd64 both sides are scalar
	twoCPUs    bool // the kernel side needs a second CPU to differ
}

// gateEnv is what decides whether a row runs.
type gateEnv struct {
	goarch string
	purego bool
	cpus   int
}

// gateLine is one row's JSON line. Times are per call of a side.
type gateLine struct {
	Gate            string  `json:"gate"`
	Reading         float64 `json:"reading"`
	Bound           float64 `json:"bound"`
	RefFastestNs    float64 `json:"ref_fastest_ns"`
	RefSlowestNs    float64 `json:"ref_slowest_ns"`
	KernelFastestNs float64 `json:"kernel_fastest_ns"`
	KernelSlowestNs float64 `json:"kernel_slowest_ns"`
	GOARCH          string  `json:"goarch"`
	Purego          bool    `json:"purego"`
	Skipped         bool    `json:"skipped"`
}

// err reports a measured reading below the row's bound.
func (l gateLine) err() error {
	if !l.Skipped && !(l.Reading >= l.Bound) {
		return fmt.Errorf("%s: reference/kernel %.3g, below its bound %g", l.Gate, l.Reading, l.Bound)
	}
	return nil
}

// measure runs one row under env: it returns the row's line and, when the
// row does not apply to env, why — a skipped row builds nothing. Each side
// gets g.runs timed runs, the side that goes first alternating from run to
// run, and each run starts with one untimed call (first touch, lazily
// sized buffers, the other side's cache state) and a collection.
func measure(t testing.TB, g gate, env gateEnv) (gateLine, string) {
	line := gateLine{Gate: g.name, Bound: g.bound, GOARCH: env.goarch, Purego: env.purego}
	why := ""
	switch {
	case g.amd64Only && (env.goarch != "amd64" || env.purego):
		why = "both sides run the scalar twins here"
	case g.twoCPUs && env.cpus < 2:
		why = "one CPU: no second worker to measure"
	}
	if why != "" {
		line.Skipped = true
		return line, why
	}
	ref, kernel := g.setup(t)
	timed := func(side func()) float64 {
		side()
		runtime.GC()
		start := time.Now()
		for range g.reps {
			side()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(g.reps)
	}
	var refNs, kernelNs []float64
	for r := range g.runs {
		if r%2 == 0 {
			refNs = append(refNs, timed(ref))
			kernelNs = append(kernelNs, timed(kernel))
		} else {
			kernelNs = append(kernelNs, timed(kernel))
			refNs = append(refNs, timed(ref))
		}
	}
	line.RefFastestNs, line.RefSlowestNs = slices.Min(refNs), slices.Max(refNs)
	line.KernelFastestNs, line.KernelSlowestNs = slices.Min(kernelNs), slices.Max(kernelNs)
	line.Reading = line.RefFastestNs / line.KernelFastestNs
	return line, ""
}

func TestGates(t *testing.T) {
	for _, g := range gates {
		t.Run(g.name, func(t *testing.T) {
			if !timeGates {
				ref, kernel := g.setup(t)
				ref()
				kernel()
				return
			}
			line, why := measure(t, g, gateEnv{runtime.GOARCH, purego, runtime.NumCPU()})
			js, err := json.Marshal(line)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Println(string(js))
			if why != "" {
				t.Skip(why)
			}
			if err := line.err(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestGateDriver runs the driver on sides of known cost and on the real
// rows' skip rules.
func TestGateDriver(t *testing.T) {
	sleep := func(d time.Duration) func() { return func() { time.Sleep(d) } }
	synthetic := func(bound float64, ref, kernel time.Duration) gate {
		return gate{name: "synthetic", reps: 2, runs: 3, bound: bound,
			setup: func(testing.TB) (func(), func()) { return sleep(ref), sleep(kernel) }}
	}
	host := gateEnv{"amd64", false, 2}

	below, _ := measure(t, synthetic(1, time.Millisecond, 3*time.Millisecond), host)
	if below.err() == nil {
		t.Errorf("a kernel three times slower than its reference passed a bound of 1: %+v", below)
	}

	line, why := measure(t, synthetic(1, 3*time.Millisecond, time.Millisecond), host)
	if why != "" || line.err() != nil {
		t.Errorf("a kernel three times faster than its reference failed a bound of 1: %+v (%s)", line, why)
	}
	if line.RefFastestNs < 3e6 || line.KernelFastestNs < 1e6 || line.RefSlowestNs < line.RefFastestNs ||
		line.KernelSlowestNs < line.KernelFastestNs {
		t.Errorf("times off the sides' sleeps: %+v", line)
	}
	js, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(js, &fields); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"gate", "reading", "bound", "ref_fastest_ns", "ref_slowest_ns",
		"kernel_fastest_ns", "kernel_slowest_ns", "goarch", "purego", "skipped"} {
		if _, ok := fields[key]; !ok {
			t.Errorf("the JSON line %s carries no %q", js, key)
		}
	}

	row := func(name string) gate {
		i := slices.IndexFunc(gates, func(g gate) bool { return g.name == name })
		if i < 0 {
			t.Fatalf("no row %q", name)
		}
		return gates[i]
	}
	for _, c := range []struct {
		row string
		env gateEnv
	}{{"conv", gateEnv{"amd64", true, 2}}, {"conv", gateEnv{"arm64", false, 2}}, {"fan-out", gateEnv{"amd64", false, 1}}} {
		line, why := measure(t, row(c.row), c.env)
		if !line.Skipped || why == "" || line.err() != nil {
			t.Errorf("%s under %+v: %+v (%q), want skipped and no failure", c.row, c.env, line, why)
		}
	}
}

// TestKernelTwinsListed keeps internal/tensor's twin table whole, as
// TestGoStatementsAllowlisted keeps the goroutine allowlist: it parses
// simd_amd64.go and the table (twin_rows_test.go) and fails on an
// assembly kernel (a bodiless func …AVX) with no row or with two, on a
// row naming a kernel simd_amd64.go does not declare, on a kernel no
// dispatcher there calls, on a row whose gate is neither a row of the
// table below nor "none: " and why, and on a row giving its sweep or its
// checks to a test twin_test.go does not declare.
func TestKernelTwinsListed(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(name string) *ast.File {
		f, err := parser.ParseFile(fset, filepath.Join("internal", "tensor", name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	declared, called := map[string]bool{}, map[string]bool{}
	ast.Inspect(parse("simd_amd64.go"), func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body == nil && strings.HasSuffix(n.Name.Name, "AVX") {
				declared[n.Name.Name] = true
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				called[id.Name] = true
			}
		}
		return true
	})
	str := func(e ast.Expr) string {
		lit, _ := e.(*ast.BasicLit)
		if lit == nil {
			return ""
		}
		s, _ := strconv.Unquote(lit.Value)
		return s
	}
	tests := map[string]bool{}
	for _, d := range parse("twin_test.go").Decls {
		if f, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(f.Name.Name, "Test") {
			tests[f.Name.Name] = true
		}
	}
	rowOf := map[string]string{}
	ast.Inspect(parse("twin_rows_test.go"), func(n ast.Node) bool {
		row, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		fields := map[string]ast.Expr{}
		for _, e := range row.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				fields[fmt.Sprint(kv.Key)] = kv.Value
			}
		}
		if fields["gate"] == nil { // not a row
			return true
		}
		name, timed := str(fields["name"]), str(fields["gate"])
		if !strings.HasPrefix(timed, "none: ") && !slices.ContainsFunc(gates, func(g gate) bool { return g.name == timed }) {
			t.Errorf("twin row %s: gate %q is not a row of the gate table", name, timed)
		}
		for _, in := range []string{str(fields["sweepIn"]), str(fields["checksIn"])} {
			if test, _, _ := strings.Cut(in, "/"); in != "" && !tests[test] {
				t.Errorf("twin row %s: a phase runs in %s, which twin_test.go does not declare", name, in)
			}
		}
		if avx, _ := fields["avx"].(*ast.CompositeLit); avx != nil {
			for _, e := range avx.Elts {
				k := str(e)
				if rowOf[k] != "" {
					t.Errorf("%s has two twin rows, %s and %s", k, rowOf[k], name)
				}
				if rowOf[k] = name; !declared[k] {
					t.Errorf("twin row %s names %s, which simd_amd64.go does not declare", name, k)
				}
			}
		}
		return false
	})
	for k := range declared {
		if rowOf[k] == "" {
			t.Errorf("%s has no row in internal/tensor's twin table", k)
		}
		if !called[k] {
			t.Errorf("%s: no dispatcher in simd_amd64.go calls it", k)
		}
	}
	if len(declared) == 0 || len(rowOf) == 0 {
		t.Errorf("%d kernels declared, %d in twin rows", len(declared), len(rowOf))
	}
}

// bitsEqual reports whether a and b hold the same float64 bits.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// gates is the table. Each comment says what a reading below the bound
// means; the measured ranges are on a 2-vCPU Xeon (go1.24.0).
var gates = []gate{
	// perm is math/rand's Perm(n)[:k], called directly (no engine path
	// keeps it): 10^6 draws. sample is one round's cohort as the public
	// replay draws it, fl.CohortPlan round 0 over stream v2: K = 1000
	// draws. 380–460× measured; below 100× a draw per population member
	// crept back into selection.
	{name: "selection", reps: 5, runs: 3, bound: 100, setup: func(t testing.TB) (func(), func()) {
		const n, k = 1_000_000, 1000
		rng := tensor.NewRNG(1)
		seed := int64(0)
		return func() {
				if got := rng.Perm(n)[:k]; len(got) != k {
					t.Fatalf("perm drew %d ids, want %d", len(got), k)
				}
			}, func() {
				seed++
				if got := fl.CohortPlan(0, seed, n, k); len(got) != k {
					t.Fatalf("sample drew %d ids, want %d", len(got), k)
				}
			}
	}},

	// tensor.NewRNG, whose ring is seeded on jump-ahead lanes (rng.go's
	// mix), against math/rand's own serial Schrage seeding, rand.NewSource,
	// one fresh seed a call: the cost of every RNG.Split. Pure Go, so it
	// runs under purego too. 1.77–2.85× measured; math/rand's Schrage loop
	// in mix reads 0.83–0.91×, which half the low end would pass, so the
	// bound sits between the two. Below 1.2× the seeding went back to one
	// serial chain.
	{name: "rng/seed", reps: 2000, runs: 3, bound: 1.2, setup: func(t testing.TB) (func(), func()) {
		for _, seed := range []int64{0, 1, -1, 89482311, math.MinInt64, math.MaxInt64} {
			g, ref := tensor.NewRNG(seed), rand.NewSource(seed)
			for i := range 10 {
				if a, b := g.Int63(), ref.Int63(); a != b {
					t.Fatalf("seed %d draw %d: NewRNG %d, rand.NewSource %d", seed, i, a, b)
				}
			}
		}
		seed := int64(0)
		return func() { seed++; rand.NewSource(seed) }, func() { seed++; tensor.NewRNG(seed) }
	}},

	// nn.SGD.Step without weight decay (tensor.MomentumStep, held bit-equal
	// to the loop by TestSGDStepMatchesScalar) against the per-element loop
	// it replaced, over lazy_1m_fedavg's and server_heavy_k64's MLPs.
	// 2.7–4.0× measured; below 1.8× the kernel fell back to its twin or a
	// per-element bounds check crept back into the step.
	momentumRow(32, "p6506"),
	momentumRow(256, "p51978"),

	// The server folds on tensor's fold kernels against the scalar loops
	// they replaced: GlobalModelGen's mean of 64 × 51,978 and one
	// cross-aggregation lerp (server_heavy_k64), and FedAvg's weighted mean
	// of 10 × 6,506 through fl.ReduceUploads, whose scalar side screens
	// every upload before folding (lazy_1m_fedavg). mean-k64 reads
	// 1.8–2.8×: 26 MB of uploads stream from memory on both sides, and half
	// of that would gate nothing, so its floor is 1.1. It does not catch
	// the fold kernels falling back to their twins (1.59–2.23×: Axpy4 still
	// streams four uploads a pass; fold/axpy4 below catches that); below
	// 1.1× the fold went back to one upload a pass on the scalar loop
	// (≈ 1.05×).
	foldRow("mean-k64", 1.1, 100, func(_ testing.TB, rng *tensor.RNG) (func() nn.ParamVector, func() nn.ParamVector) {
		models64 := randVectors(rng, 64, 51978)
		mean := make(nn.ParamVector, 51978)
		return func() nn.ParamVector {
				copy(mean, models64[0])
				for _, v := range models64[1:] {
					for i := range mean {
						mean[i] += v[i]
					}
				}
				inv := 1 / float64(len(models64))
				for i := range mean {
					mean[i] *= inv
				}
				return mean
			}, func() nn.ParamVector {
				nn.MeanVectorsTo(mean, models64)
				return mean
			}
	}),
	// 3.1–5.7× measured; below 1.5× the lerp fell back to its twin (1.4×).
	foldRow("lerp", 1.5, 100, func(_ testing.TB, rng *tensor.RNG) (func() nn.ParamVector, func() nn.ParamVector) {
		const alpha = 0.99
		pair := randVectors(rng, 2, 51978)
		lerp := make(nn.ParamVector, 51978)
		return func() nn.ParamVector {
				v, w, beta := pair[0], pair[1], 1-alpha
				for i := range lerp {
					lerp[i] = alpha*v[i] + beta*w[i]
				}
				return lerp
			}, func() nn.ParamVector {
				nn.LerpVectorsTo(lerp, pair[0], pair[1], alpha)
				return lerp
			}
	}),
	// 4.5–9.1× measured. Below 2.2× the fold kernels fell back to their
	// twins and the mean rule went back to screening every upload (≈ 2.0×;
	// either alone reads ≈ 3.5× and ≈ 5.9×; AllFinite alone on its twin
	// 4.19–6.73×, which fold/finite below catches).
	foldRow("reduce-k10", 2.2, 100, func(t testing.TB, rng *tensor.RNG) (func() nn.ParamVector, func() nn.ParamVector) {
		uploads := randVectors(rng, 10, 6506)
		weights := make([]float64, len(uploads))
		for i := range weights {
			weights[i] = float64(1 + rng.Intn(40))
		}
		return func() nn.ParamVector {
				for _, u := range uploads {
					for _, x := range u {
						if math.IsNaN(x) || math.IsInf(x, 0) {
							t.Fatal("non-finite upload")
						}
					}
				}
				total := 0.0
				for _, w := range weights {
					total += w
				}
				out := make(nn.ParamVector, len(uploads[0]))
				for k, v := range uploads {
					w := weights[k] / total
					for i := range v {
						out[i] += w * v[i]
					}
				}
				return out
			}, func() nn.ParamVector {
				out, err := fl.ReduceUploads(nil, uploads, weights)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
	}),

	// mean-k64 and reduce-k10 time whole folds, whose uploads stream from
	// memory or whose screen the mean rule skips, so they pass with the
	// fold kernels on their twins. These two rows time the kernels
	// themselves against the scalar loops written out here, on L2-resident
	// CNN-sized vectors (6,506): four uploads folded into one mean, and ten
	// uploads screened. Measured axpy4 2.15–3.77×, finite 5.07–9.87×; with
	// the kernel on its twin 0.90–1.48× and 0.61–1.18×. finite is gated at
	// half its low end; half of axpy4's would not clear its twin, so its
	// floor sits between the two. Below the bound the kernel fell back to
	// its twin.
	foldRow("axpy4", 1.7, 2000, func(_ testing.TB, rng *tensor.RNG) (func() nn.ParamVector, func() nn.ParamVector) {
		xs := randVectors(rng, 4, 6506)
		dst := make(nn.ParamVector, 6506)
		x0, x1, x2, x3 := xs[0][:len(dst)], xs[1][:len(dst)], xs[2][:len(dst)], xs[3][:len(dst)]
		a0, a1, a2, a3 := 0.1, 0.2, 0.3, 0.4
		return func() nn.ParamVector {
				clear(dst)
				for i := range dst {
					d := dst[i] + float64(a0*x0[i])
					d += float64(a1 * x1[i])
					d += float64(a2 * x2[i])
					dst[i] = d + float64(a3*x3[i])
				}
				return dst
			}, func() nn.ParamVector {
				clear(dst)
				tensor.Axpy4(dst, x0, x1, x2, x3, a0, a1, a2, a3)
				return dst
			}
	}),
	foldRow("finite", 2.5, 1000, func(_ testing.TB, rng *tensor.RNG) (func() nn.ParamVector, func() nn.ParamVector) {
		uploads := randVectors(rng, 10, 6506)
		verdict := nn.ParamVector{0}
		return func() nn.ParamVector {
				verdict[0] = 1
				for _, u := range uploads {
					for _, x := range u {
						if x-x != 0 {
							verdict[0] = 0
						}
					}
				}
				return verdict
			}, func() nn.ParamVector {
				verdict[0] = 1
				for _, u := range uploads {
					if !tensor.AllFinite(u) {
						verdict[0] = 0
					}
				}
				return verdict
			}
	}),

	// The platform Gemm (avx2Backend's register-tiled kernels) against its
	// GoBackend twin over a model's Linear shapes, summed: the CNN head's
	// six GEMMs at batch 50 (sync_cnn_noniid) and the five the 192-256-10
	// MLP runs on a ten-sample batch (server_heavy_k64; its first layer
	// forms no input gradient). Measured cnn 7.3–8.7×, mlp 5.9–7.8×, gated
	// at half the low end: below it the kernels fell back to a Go loop.
	gemmRow("cnn", 3.6, []gemmShape{
		{50, 64, 32, false, false}, {64, 50, 32, true, false}, {50, 32, 64, false, true},
		{50, 32, 10, false, false}, {32, 50, 10, true, false}, {50, 10, 32, false, true},
	}),
	gemmRow("mlp", 2.9, []gemmShape{
		{10, 192, 256, false, false}, {192, 10, 256, true, false},
		{10, 256, 10, false, false}, {256, 10, 10, true, false}, {10, 10, 256, false, true},
	}),

	// One 10^6-client Dir(0.5) vector: tensor.RNG.DirichletInto draws four
	// Gamma variates per AVX2 step from the generator's ring; its twin
	// DirichletIntoGo one at a time. 1.25–1.38× measured (≈ 11 % of draws
	// leave the lanes' fast path, ≈ 150 ns a stop); below 1.1× the lanes
	// fell back to the twin.
	dirichletRow("scalar/ring", 1.1, false),
	// mathrand is the sampler both replaced, over rand.Rand and math/rand's
	// own source. 1.67–1.89× measured; below 1.25× a call through
	// rand.Rand crept back into the per-draw path (≈ 0.95×). The lanes
	// falling back to the twin read ≈ 1.3× here, so the row above is the
	// one that catches that.
	dirichletRow("mathrand/ring", 1.25, true),

	// The topk codec's linear radix selection against the full-sort
	// threshold it replaced, on one 2^16 payload; both must write the
	// codec's exact bytes. 6.0–9.1× measured; below 3× a sort, a per-call
	// allocation storm or a broken scratch lease crept back into the
	// encoder.
	{name: "topk", reps: 10, runs: 3, bound: 3, setup: func(t testing.TB) (func(), func()) {
		vec := randVectors(tensor.NewRNG(1), 1, 1<<16)[0]
		topk := nn.TopKCodec{Frac: 0.1}
		want := topk.Encode(nil, vec)
		var radix, sorted []byte
		mags, order := make([]float64, len(vec)), make([]float64, len(vec))
		ref := func() {
			for j, v := range vec {
				mags[j] = math.Abs(v) // the payload has no NaN to order
			}
			copy(order, mags)
			slices.Sort(order)
			k := topk.Keep(len(vec))
			thresh := order[len(vec)-k]
			sorted = binary.LittleEndian.AppendUint32(sorted[:0], uint32(len(vec)))
			sorted = binary.LittleEndian.AppendUint32(sorted, uint32(k))
			emit := func(j int) {
				sorted = binary.LittleEndian.AppendUint32(sorted, uint32(j))
				sorted = binary.LittleEndian.AppendUint32(sorted, math.Float32bits(float32(vec[j])))
				k--
			}
			for j, m := range mags {
				if k > 0 && m > thresh {
					emit(j)
				}
			}
			for j, m := range mags {
				if k > 0 && m == thresh {
					emit(j)
				}
			}
		}
		kernel := func() { radix = topk.Encode(radix[:0], vec) }
		ref()
		kernel()
		if !bytes.Equal(sorted, want) || !bytes.Equal(radix, want) {
			t.Fatal("the radix encode or the sort-threshold encode written out here is not the codec's payload")
		}
		return ref, kernel
	}},

	// The int8 wire, one call an 8-payload batch of the CNN's 6,506
	// parameters: DownAll / UpAll at Limit(1) (the codec takes the delta
	// reference, three fused kernels) against the five scalar passes it
	// replaced over the kernels' Go twins (subtract into a residual, scan
	// its range, quantise, dequantise, add the reference back). The batch
	// (1.25 MB of vectors, references and destinations) stays in L2, so
	// the box's shared memory bandwidth does not pull the ratio toward 1
	// as server_heavy_k64's 26 MB did (1.69–2.24× down there). 2.96–6.80×
	// measured down, 4.74–6.35× up; with the kernels on their twins
	// 0.67–1.37× down and 1.13–1.74× up, and with a residual vector
	// allocated per payload in deliver 1.19–1.56× up. Below 2× a kernel
	// fell back to its twin or a residual vector crept back into deliver.
	// A separate delta pass into a reused buffer reads 2.05–3.14× up and
	// passes: in cache its two extra passes are cheap. wire/up-fused
	// catches that.
	wireRow("down", false),
	wireRow("up", true),

	// UpAll against the two-pass form of the same round trips on the same
	// kernels (twoPassUp): the residual vec−ref into a reused buffer, the
	// int8 codec without a reference, ref added back. wire/up passes that
	// form in deliver because its reference is the five scalar passes;
	// this row holds the delta fused into the codec's kernels. Measured
	// 1.82–2.72×; with deliver running the two-pass form 0.74–0.88×. Below
	// 1.3× a residual pass crept back into deliver.
	{name: "wire/up-fused", reps: 20, runs: 3, bound: 1.3, amd64Only: true, setup: func(t testing.TB) (func(), func()) {
		const k, n = 8, 6506
		w := newWireBatch(k, n)
		tr, err := fl.NewTransport(fl.TransportOptions{Codec: "int8"})
		if err != nil {
			t.Fatal(err)
		}
		ok := make([]bool, k)
		res, buf := make(nn.ParamVector, n), []byte(nil)
		twoPass := make([]nn.ParamVector, k)
		for j := range twoPass {
			twoPass[j] = w.refs[j].Clone()
		}
		ref := func() {
			for j, vec := range w.vecs {
				buf = twoPassUp(t, twoPass[j], vec, w.refs[j], res, buf)
			}
		}
		kernel := func() { tr.UpAll(w.dsts, ok, w.clients, w.vecs, w.refs, fl.Limit(1)) }
		ref()
		kernel()
		for j := range twoPass {
			if !ok[j] || !bitsEqual(twoPass[j], w.dsts[j]) {
				t.Fatalf("upload %d: UpAll and the two-pass round trip differ", j)
			}
		}
		return ref, kernel
	}},

	// One round of FedCross's int8 wire at server_heavy_k64's shape, 64
	// dispatches then 64 in-place delta uploads, at Limit(1) against
	// Limit(2): outcomes are decided serially and only the codec round
	// trips fan out (TestTransportBatchWorkerInvariance holds the two
	// equal). 1.76–2.08× measured. A single Limit(2) run swings 5–12 ms
	// when the box's second vCPU is busy, and with three runs a side the
	// row read 1.25 in one table run of ten on load alone, so each side
	// takes the fastest of seven shorter runs. Below 1.3× the round trips
	// stopped fanning out, or something serial (a shared buffer, a lock)
	// crept into them.
	{name: "fan-out", reps: 10, runs: 7, bound: 1.3, twoCPUs: true, setup: func(t testing.TB) (func(), func()) {
		const k, n = 64, 51978
		w := newWireBatch(k, n)
		ok := make([]bool, k)
		round := func(workers int) func() {
			tr, err := fl.NewTransport(fl.TransportOptions{Codec: "int8"})
			if err != nil {
				t.Fatal(err)
			}
			params := make([]nn.ParamVector, k)
			for i := range params {
				params[i] = w.vecs[i].Clone()
			}
			return func() {
				tr.DownAll(w.dsts, w.clients, w.refs, fl.Limit(workers))
				tr.UpAll(params, ok, w.clients, params, w.dsts, fl.Limit(workers))
			}
		}
		return round(1), round(2)
	}},

	// FedCross's server pass at server_heavy_k64's K = 64 × 51,978:
	// core.CrossAggrAll's column spans, each lerping its K columns and
	// folding their mean while they are cached, against the two passes it
	// replaced — the K lerps fanned out over fl.ParallelForW, then
	// GlobalModelGen's serial mean (without its allocation) streaming the
	// K next models back from L3. Both sides run on two workers, and the
	// setup holds the next models and the mean to the same bits.
	// 1.78–1.96× measured; the two-pass form against itself reads
	// 0.99–1.04×, which half the low end would pass, so the bound sits
	// between the two. Below 1.25× the mean went back to a second pass.
	// On the scalar twins (purego) it reads 1.30–1.50×.
	{name: "fold/span-pass", reps: 10, runs: 7, bound: 1.25, amd64Only: true, twoCPUs: true, setup: func(t testing.TB) (func(), func()) {
		const k, n, alpha = 64, 51978, 0.99
		uploads := randVectors(tensor.NewRNG(4), k, n)
		co := make([]int, k)
		for i := range co {
			co[i] = core.CoModelSel(core.InOrder, i, 3, uploads, nil)
		}
		next := make([]nn.ParamVector, k)
		for i := range next {
			next[i] = make(nn.ParamVector, n)
		}
		refMean, spanMean := make(nn.ParamVector, n), make(nn.ParamVector, n)
		ref := func() {
			fl.ParallelForW(k, fl.Limit(2), func(i int) {
				nn.LerpVectorsTo(next[i], uploads[i], uploads[co[i]], alpha)
			})
			nn.MeanVectorsTo(refMean, next)
		}
		span := func() { core.CrossAggrAll(next, uploads, co, alpha, spanMean, fl.Limit(2)) }
		ref()
		want := make([]nn.ParamVector, k)
		for i := range want {
			want[i] = next[i].Clone()
		}
		span()
		for i := range next {
			if !bitsEqual(next[i], want[i]) {
				t.Fatalf("span pass: next model %d differs from the per-model lerp", i)
			}
		}
		if !bitsEqual(spanMean, refMean) || !bitsEqual(refMean, core.GlobalModelGen(next)) {
			t.Fatal("span pass: the folded mean differs from GlobalModelGen")
		}
		return ref, span
	}},

	// NumCPU workers lease and release a 4,096-client population through a
	// 512-slot cache, every lease a miss plus an eviction: the ID-sharded
	// cache at 64 stripes against singleMutexLazy. The win is structural —
	// synthesis runs outside the stripe lock and the eviction scan is
	// O(resident/64) — so it holds on one core (≈ 4.3×) and widens with
	// cores. Below 3× synthesis moved back under a lock, stripes
	// collapsed, or the eviction scan went global again.
	{name: "striped-cache", reps: 3, runs: 3, bound: 3, setup: func(t testing.TB) (func(), func()) {
		train, _ := data.GenerateVision(data.VisionConfig{
			Classes: 10, Features: models.VisionFeatures,
			TrainPerClass: 100, TestPerClass: 1,
			ModesPerClass: 2, Sep: 0.6, Noise: 0.8, Seed: 1,
		})
		const n, capacity = 4096, 512
		asg := data.AssignDirichlet(train.Y, train.Classes, n, 0.5, tensor.NewRNG(2))
		var ids []int
		for ci := range n {
			if asg.Size(ci) > 0 {
				ids = append(ids, ci)
			}
		}
		workers := runtime.NumCPU()
		hammer := func(shard func(int) *data.Dataset, release func(int)) {
			var wg sync.WaitGroup
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Stride so each worker sweeps every stripe and
					// same-id collisions across workers are routine.
					for j := w; j < len(ids); j += workers {
						shard(ids[j])
						release(ids[j])
					}
				}()
			}
			wg.Wait()
		}
		base := &singleMutexLazy{base: train, asg: asg, capacity: capacity, cache: map[int]*smShard{}}
		striped := data.NewLazy(train, asg, capacity, 64)
		return func() { hammer(base.Shard, base.Release) }, func() {
			hammer(striped.Shard, striped.Release)
			if n := striped.Outstanding(); n != 0 {
				t.Fatalf("%d leases outstanding", n)
			}
		}
	}},

	// FedCross's K×K similarity pass at server_heavy_k64's shape (K = 64,
	// n = 51,978): the register-tiled Gram kernel (eight dot chains in
	// flight a tile, column chunks that keep the panel in cache) against
	// K norms plus K(K−1)/2 Dot calls. 4.3–5.3× measured; below 2.5× the
	// tile fell back to its scalar twin, the chunking went and the pass
	// turned memory-bound, or a per-pair Dot crept back.
	{name: "gram", reps: 5, runs: 3, bound: 2.5, amd64Only: true, setup: func(testing.TB) (func(), func()) {
		const k = 64
		w := randVectors(tensor.NewRNG(1), k, 51978)
		fromDot := core.CosineMeasure().FromDot
		normsSq, s := make([]float64, k), make([]float64, k*k)
		return func() {
				fl.ParallelForW(k, fl.Workers{}, func(i int) { normsSq[i] = w[i].NormSq() })
				fl.ParallelForW(k*k, fl.Workers{}, func(p int) {
					if i, j := p/k, p%k; i < j {
						s[p] = fromDot(w[i].Dot(w[j]), normsSq[i], normsSq[j])
					}
				})
			}, func() {
				core.NewSimMatrix(w, core.CosineMeasure(), fl.Workers{})
			}
	}},

	// A training step's share of one convolution — forward plus parameter
	// gradients, batch 50 — at the CNN's two geometries without the pool
	// the CNN folds in (VGGMini's and ResNetMini's unpooled convolutions
	// run this path): nn.Conv2D on the Winograd kernels (tensor.Winograd:
	// F(2×2, 3×3) forward, F(3×3, 2×2) weight gradient), conversions and
	// filter transforms included, against the float64 per-sample lowering
	// the layer is bounded against (lowering.Im2ColTo, the forward GEMM and the bias add, a transposed-B GEMM and
	// a serial row sum per sample), its GEMMs on tensor.GoBackend so a
	// faster platform Gemm does not move it. 18.4–25.0× measured in three
	// runs (12.0–19.2× on the direct float32 kernels it replaced); with the
	// Winograd kernels on their Go twins 0.77–0.86×, and under purego, both
	// sides scalar, the row is skipped. Below 9.2× a kernel fell back to
	// its twin, a lowered matrix crept back into the layer, or the float32
	// path lost its lanes.
	{name: "conv", reps: 200, runs: 3, bound: 9.2, amd64Only: true, setup: func(testing.TB) (func(), func()) {
		var gemm tensor.GoBackend
		layers := convLayers()
		type scratch struct{ cols, y, out, dW, dB *tensor.Tensor }
		ws := make([]scratch, len(layers))
		for i, l := range layers {
			g, outC := l.conv.Geom, l.conv.OutC
			rows, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
			ws[i] = scratch{tensor.Zeros(rows, spatial), tensor.Zeros(outC, spatial), tensor.Zeros(convBatch, outC*spatial), tensor.Zeros(outC, rows), tensor.Zeros(outC)}
		}
		return func() {
				for li, l := range layers {
					g, outC, w := l.conv.Geom, l.conv.OutC, ws[li]
					rows, spatial, inLen := g.InC*g.KH*g.KW, g.OutH()*g.OutW(), l.conv.InFeatures()
					for s := range convBatch {
						lowering.Im2ColTo(w.cols, tensor.New(l.x.Data[s*inLen:(s+1)*inLen], g.InC, g.InH, g.InW), g)
						gemm.Gemm(w.y.Data, l.conv.W.Data, w.cols.Data, outC, rows, spatial, false, false, false)
						dy := tensor.New(l.grad.Data[s*outC*spatial:(s+1)*outC*spatial], outC, spatial)
						for oc := range outC {
							sum := 0.0
							for j := range spatial {
								w.out.Data[(s*outC+oc)*spatial+j] = w.y.Data[oc*spatial+j] + l.conv.B.Data[oc]
								sum += dy.Data[oc*spatial+j]
							}
							w.dB.Data[oc] += sum
						}
						gemm.Gemm(w.dW.Data, dy.Data, w.cols.Data, outC, spatial, rows, false, true, true)
					}
				}
			}, func() {
				for _, l := range layers {
					l.conv.Forward(l.x)
					l.conv.BackwardParams(l.grad)
				}
			}
	}},

	// conv2's backward pass (8 → 16 channels, 4 × 4, batch 50, without the
	// pool the CNN folds in; the fused layer's input gradient is the same
	// kernel), whose input gradient is tensor.Winograd.GradInput (F(2×2, 3×3) with the flipped,
	// transposed filters over the output gradient padded by one, written
	// straight to the float64 dx): Conv2D.Backward against the same
	// BackwardParams plus the float64 per-sample transposed-A GEMM (on
	// GoBackend) and lowering.Col2ImTo; both sides pay the same parameter
	// gradients. 11.5–14.7× measured in three runs (5.5–8.8× on the direct
	// kernel it replaced); 0.80–0.89× with the kernels on their Go twins.
	// Below 5.8× a lowered matrix came back or the kernels fell back to
	// their twins.
	{name: "input-grad", reps: 200, runs: 3, bound: 5.8, amd64Only: true, setup: func(testing.TB) (func(), func()) {
		var gemm tensor.GoBackend
		l := convLayers()[1]
		g, outC := l.conv.Geom, l.conv.OutC
		spatial, inLen := g.OutH()*g.OutW(), l.conv.InFeatures()
		dcols, dx := tensor.Zeros(g.InC*g.KH*g.KW, spatial), tensor.Zeros(convBatch, inLen)
		l.conv.Forward(l.x)
		return func() {
				l.conv.BackwardParams(l.grad)
				for s := range convBatch {
					dy := tensor.New(l.grad.Data[s*outC*spatial:(s+1)*outC*spatial], outC, spatial)
					gemm.Gemm(dcols.Data, l.conv.W.Data, dy.Data, g.InC*g.KH*g.KW, outC, spatial, true, false, false)
					lowering.Col2ImTo(tensor.New(dx.Data[s*inLen:(s+1)*inLen], g.InC, g.InH, g.InW), dcols, g)
				}
			}, func() {
				l.conv.Backward(l.grad)
			}
	}},

	// A forward and a backward pass through two ReLU → MaxPool stages at
	// the CNN's shapes, batch 50 (the CNN now folds its pools into its
	// convolutions, row conv-pool; ResNetMini's pool after a residual block
	// is the standalone one left): nn.NewReLUMaxPool2D against the two
	// layers it folds, whose backward pass is tensor.Unpool2x2 where the two layers'
	// zero dx and scatter. 1.7–2.9× measured (1.5–2.4× when both sides
	// zeroed and scattered), single runs dipping to 1.0 when the box
	// slows inside the folded side; half of that would gate nothing, so
	// the floor is 1.1: below it the fold buys nothing — a rectifier pass
	// crept back into the layer, or its start value sends the pool down a
	// slower path than −Inf does.
	{name: "relu-pool", reps: 200, runs: 3, bound: 1.1, amd64Only: true, setup: func(testing.TB) (func(), func()) {
		rng := tensor.NewRNG(2)
		type stage struct {
			folded, pool *nn.MaxPool2D
			relu         *nn.ReLU
			x, grad      *tensor.Tensor
		}
		var stages []stage
		for _, c := range []struct{ ch, side int }{{8, models.VisionH}, {16, models.VisionH / 2}} {
			folded := nn.NewReLUMaxPool2D(c.ch, c.side, c.side)
			stages = append(stages, stage{folded, nn.NewMaxPool2D(c.ch, c.side, c.side), nn.NewReLU(),
				rng.Randn(1, convBatch, folded.InFeatures()), rng.Randn(1, convBatch, folded.OutFeatures())})
		}
		return func() {
				for _, s := range stages {
					s.pool.Forward(s.relu.Forward(s.x))
					s.relu.Backward(s.pool.Backward(s.grad))
				}
			}, func() {
				for _, s := range stages {
					s.folded.Forward(s.x)
					s.folded.Backward(s.grad)
				}
			}
	}},

	// Two 2×2 pools at the CNN's shapes and batch 50, one call a sample as
	// nn.MaxPool2D makes them (ResNetMini's pool after a residual block;
	// the CNN's run inside its convolutions), from +0 as the ReLU-folded
	// pools start:
	// tensor.MaxPool2x2 against MaxPool2x2Go.
	// 7.5–13.7× over twenty runs, 0.92–1.21× with the kernel on its twin;
	// the bound is under half the low end: below it the pool fell back to
	// its twin (or stopped taking the CNN's plane shapes).
	{name: "pool", reps: 200, runs: 3, bound: 3.5, amd64Only: true, setup: func(testing.TB) (func(), func()) {
		rng := tensor.NewRNG(6)
		type stage struct {
			src, dst []float64
			am       []int
			ch, side int
		}
		var stages []stage
		for _, c := range []struct{ ch, side int }{{8, models.VisionH}, {16, models.VisionH / 2}} {
			n := convBatch * c.ch * c.side * c.side
			stages = append(stages, stage{rng.Randn(1, n).Data, make([]float64, n/4), make([]int, n/4), c.ch, c.side})
		}
		run := func(pool func(dst []float64, am []int, src []float64, w, oh, ow, planes int, start float64)) func() {
			return func() {
				for _, s := range stages {
					in, out := len(s.src)/convBatch, len(s.dst)/convBatch
					for b := range convBatch {
						pool(s.dst[b*out:(b+1)*out], s.am[b*out:(b+1)*out], s.src[b*in:(b+1)*in], s.side, s.side/2, s.side/2, s.ch, 0)
					}
				}
			}
		}
		return run(tensor.MaxPool2x2Go), run(tensor.MaxPool2x2)
	}},

	// The rectifier over the CNN's three activations at batch 50 — both
	// convolutions' outputs (which the product rectifies inside its folded
	// pools) and the hidden Linear layer's — one call each: ReluForward and
	// ReluBackward against their twins. Over twenty runs forward read
	// 8.5–11.6× and backward 16.4–25.0×; with each kernel on its twin
	// 1.03–1.25× and 0.99–1.23×. Each bound is half its low end: below it
	// the rectifier fell back to its twin.
	reluRow("forward", 4, tensor.ReluForwardGo, tensor.ReluForward),
	reluRow("backward", 8, tensor.ReluBackwardGo, tensor.ReluBackward),

	// The CNN's two conv → ReLU → pool stages at batch 50, forward and
	// backward as a training step runs them (the first stage forms no input
	// gradient): nn.NewConv2DReLUPool — the pool inside the Winograd output
	// transform (tensor.Winograd.ForwardPool), its gradient routed straight
	// into the padded float32 frame (tensor.UnpoolPadded) — against
	// nn.NewConv2D then nn.NewReLUMaxPool2D from the same draws; setup holds
	// outputs, dx, dW and dB to the same bits. 0.97–1.38× over ten runs
	// (single runs near 1 when the box slows inside the fused side); with
	// the pooled output transform and the unpool on their twins
	// 0.07–0.11×. The bound is half the low end: below it the pooled
	// output transform fell back to its twin. The unpool alone on its twin
	// reads ≈ 1 here; glue/unpool-padded catches that.
	{name: "conv-pool", reps: 200, runs: 3, bound: 0.48, amd64Only: true, setup: func(t testing.TB) (func(), func()) {
		rng := tensor.NewRNG(8)
		type stage struct {
			fused, conv *nn.Conv2D
			pool        *nn.MaxPool2D
			x, grad     *tensor.Tensor
		}
		var stages []stage
		for i, c := range []struct{ inC, side, outC int }{{models.VisionC, models.VisionH, 8}, {8, models.VisionH / 2, 16}} {
			fused := nn.NewConv2DReLUPool(c.inC, c.side, c.side, c.outC, tensor.NewRNG(int64(i)))
			stages = append(stages, stage{fused, nn.NewConv2D(c.inC, c.side, c.side, c.outC, tensor.NewRNG(int64(i))),
				nn.NewReLUMaxPool2D(c.outC, c.side, c.side), rng.Randn(1, convBatch, fused.InFeatures()), rng.Randn(1, convBatch, fused.OutFeatures())})
		}
		var outs [2][]*tensor.Tensor
		step := func(side int) {
			outs[side] = outs[side][:0]
			for i, s := range stages {
				var out, dx *tensor.Tensor
				if side == 0 {
					out = s.pool.Forward(s.conv.Forward(s.x))
					if dx = s.pool.Backward(s.grad); i > 0 {
						dx = s.conv.Backward(dx)
					} else {
						s.conv.BackwardParams(dx)
					}
				} else {
					out = s.fused.Forward(s.x)
					if i > 0 {
						dx = s.fused.Backward(s.grad)
					} else {
						s.fused.BackwardParams(s.grad)
					}
				}
				outs[side] = append(outs[side], out)
				if i > 0 {
					outs[side] = append(outs[side], dx)
				}
			}
		}
		step(0)
		step(1)
		for i, s := range stages {
			same := bitsEqual(outs[0][i].Data, outs[1][i].Data)
			for j, g := range s.conv.Grads() {
				same = same && bitsEqual(g.Data, s.fused.Grads()[j].Data)
			}
			if !same || !bitsEqual(outs[0][2].Data, outs[1][2].Data) {
				t.Fatalf("stage %d: the fused layer and the two layers it folds differ", i)
			}
		}
		return func() { step(0) }, func() { step(1) }
	}},

	// The filter transform of the CNN's two convolutions, once a training
	// step: tensor.Winograd.SetWeights (winoFilterAVX, the forward filters
	// and the input gradient's flipped ones in one pass) against
	// SetWeightsGo; setup holds a forward pass, an input gradient and the
	// parameter gradients after each to the same bits. 2.96–3.73× over ten
	// runs; 0.88–1.29× with the kernel on its twin. The bound is half the
	// low end: below it the transform fell back to its twin.
	{name: "wino/filter", reps: 2000, runs: 3, bound: 1.48, amd64Only: true, setup: func(t testing.TB) (func(), func()) {
		layers := winoLayers(t, 2)
		return func() {
				for _, l := range layers {
					l.p.SetWeightsGo(l.w)
				}
			}, func() {
				for _, l := range layers {
					l.p.SetWeights(l.w)
				}
			}
	}},

	// The parameter gradients of the CNN's second convolution (8 → 16
	// channels) at batch 2, one group of tiles, where the per-step
	// transform back to the 3×3 taps (winoGradsAVX) weighs most beside the
	// product: GradParams against GradParamsGo, fastest of seven runs a
	// side. 18.3–33.8× over ten runs; 9.1–17.6× with the gradients' kernel
	// alone on its twin (the twin's product dominates the reference side).
	// Half the low end would pass on the twin, so the bound sits between:
	// below it the transform back fell back to its twin.
	{name: "wino/grads", reps: 2000, runs: 7, bound: 15, amd64Only: true, setup: func(t testing.TB) (func(), func()) {
		l := winoLayers(t, 2)[1]
		run := func(grads func(p *tensor.Winograd, dW, dB []float64, dy []float32, batch int)) func() {
			return func() { grads(l.p, l.dW, l.dB, l.dy, 2) }
		}
		return run((*tensor.Winograd).GradParamsGo), run((*tensor.Winograd).GradParams)
	}},

	// The conv and pool layers' data movement on its AVX2 kernels against
	// their Go twins, at the CNN's shapes and batch 50, one call a batch
	// each as nn.Conv2D and MaxPool2D make them. narrow: both convolutions'
	// inputs and incoming gradients into their float32 buffers padded by
	// one (an unpooled convolution's incoming gradient; the CNN's fused
	// ones take tensor.UnpoolPadded, row conv-pool), measured 3.76–4.48× over ten
	// runs and gated at 1.6; 0.81–1.14× with the kernel on its twin.
	// unpool: both ReLU-pool stages' 2×2 backward passes (a standalone
	// pool's, as ResNetMini's runs it); its twin is the
	// zero-and-scatter loop the kernel replaced: 1.65–2.63×, half of which
	// would gate nothing, and 0.87–1.22× with the kernel on the twin, so
	// its floor sits between the two. Below the bound the kernel fell back
	// to its twin.
	glueRow("narrow", 1.6, func(*tensor.RNG) (func(), func()) {
		type call struct {
			dst        []float32
			src        []float64
			planes, hw int
		}
		var calls []call
		for _, l := range convLayers() {
			g, side := l.conv.Geom, l.conv.Geom.InH
			plane := (side + 2) * (side + 2) // padded by one
			calls = append(calls,
				call{make([]float32, convBatch*g.InC*plane), l.x.Data, convBatch * g.InC, side},
				call{make([]float32, convBatch*l.conv.OutC*plane), l.grad.Data, convBatch * l.conv.OutC, side})
		}
		run := func(f func([]float32, []float64, int, int, int, int)) func() {
			return func() {
				for _, c := range calls {
					f(c.dst, c.src, c.planes, c.hw, c.hw, 1)
				}
			}
		}
		return run(tensor.NarrowPaddedGo), run(tensor.NarrowPadded)
	}),
	glueRow("unpool", 1.35, func(rng *tensor.RNG) (func(), func()) {
		type stage struct {
			ow, pairs int
			dx, g     []float64
			am        []int
		}
		var stages []stage
		for _, c := range []struct{ ch, side int }{{8, models.VisionH}, {16, models.VisionH / 2}} {
			ow, pairs, w := c.side/2, c.ch*c.side/2, c.side
			am := make([]int, convBatch*pairs*ow)
			for o := range am {
				r, ox := o/ow%pairs, o%ow
				am[o] = 2*r*w + 2*ox + []int{0, 1, w, w + 1}[rng.Intn(4)]
			}
			stages = append(stages, stage{ow, pairs, make([]float64, 4*len(am)), rng.Randn(1, len(am)).Data, am})
		}
		run := func(f func(dx, g []float64, am []int, ow, pairs, batch int)) func() {
			return func() {
				for _, s := range stages {
					f(s.dx, s.g, s.am, s.ow, s.pairs, convBatch)
				}
			}
		}
		return run(tensor.Unpool2x2Go), run(tensor.Unpool2x2)
	}),
	// The fused conv-pool layers' backward data movement at batch 50:
	// tensor.UnpoolPadded over the CNN's two pooled planes (8 and 16
	// channels of 4×4 and 2×2 windows, tap codes −1…3) against its twin.
	// 4.8–8.7× over ten runs, 0.86–1.35× with the kernel on its twin; the
	// bound is half the low end: below it the kernel fell back to its twin.
	glueRow("unpool-padded", 2.4, func(rng *tensor.RNG) (func(), func()) {
		type stage struct {
			dst          []float32
			g            []float64
			taps         []int32
			planes, side int
		}
		var stages []stage
		for _, c := range []struct{ ch, side int }{{8, models.VisionH / 2}, {16, models.VisionH / 4}} {
			planes, n := convBatch*c.ch, convBatch*c.ch*c.side*c.side
			taps := make([]int32, n)
			for i := range taps {
				taps[i] = int32(rng.Intn(5) - 1)
			}
			stages = append(stages, stage{make([]float32, planes*(2*c.side+2)*(2*c.side+2)), rng.Randn(1, n).Data, taps, planes, c.side})
		}
		run := func(f func(dst []float32, g []float64, taps []int32, planes, oh, ow int)) func() {
			return func() {
				for _, s := range stages {
					f(s.dst, s.g, s.taps, s.planes, s.side, s.side)
				}
			}
		}
		return run(tensor.UnpoolPaddedGo), run(tensor.UnpoolPadded)
	}),
}

// randVectors is k vectors of n N(0, 1) draws.
func randVectors(rng *tensor.RNG, k, n int) []nn.ParamVector {
	vs := make([]nn.ParamVector, k)
	for i := range vs {
		vs[i] = make(nn.ParamVector, n)
		for j := range vs[i] {
			vs[i][j] = rng.Normal(0, 1)
		}
	}
	return vs
}

func momentumRow(hidden int, name string) gate {
	return gate{name: "momentum/" + name, reps: 2000, runs: 3, bound: 1.8, amd64Only: true, setup: func(t testing.TB) (func(), func()) {
		net := models.MLP(models.VisionFeatures, hidden, 10).New(tensor.NewRNG(1))
		params, grads := net.Params(), net.Grads()
		if got := fmt.Sprintf("p%d", len(nn.FlattenParams(params))); got != name {
			t.Fatalf("the %d-hidden MLP is %s, the row %s", hidden, got, name)
		}
		rng := tensor.NewRNG(2)
		for _, g := range grads {
			for j := range g.Data {
				g.Data[j] = rng.Normal(0, 1e-3)
			}
		}
		lr, m := 0.01, 0.5
		opt := nn.NewSGD(lr, m)
		velocity := make([][]float64, len(params))
		for i, p := range params {
			velocity[i] = make([]float64, len(p.Data))
		}
		return func() {
				for k, p := range params {
					g, v := grads[k], velocity[k]
					for j := range p.Data {
						v[j] = m*v[j] + g.Data[j]
						p.Data[j] -= lr * v[j]
					}
				}
			}, func() {
				opt.Step(params, grads)
			}
	}}
}

// foldRow gates a fold kernel against the scalar loop it replaced; setup
// fails unless both return the same bits.
func foldRow(name string, bound float64, reps int, sides func(t testing.TB, rng *tensor.RNG) (scalar, kernel func() nn.ParamVector)) gate {
	return gate{name: "fold/" + name, reps: reps, runs: 3, bound: bound, amd64Only: true, setup: func(t testing.TB) (func(), func()) {
		scalar, kernel := sides(t, tensor.NewRNG(3))
		if !bitsEqual(kernel(), scalar()) {
			t.Fatalf("%s: kernel and scalar loop differ", name)
		}
		return func() { scalar() }, func() { kernel() }
	}}
}

// reluRow gates a rectifier kernel against its twin, each side called
// as (dst, src, mask) over the CNN's rectified activations, the mask src's
// as the forward pass leaves it.
func reluRow(name string, bound float64, twin, kernel func(dst, src []float64, mask []bool)) gate {
	return gate{name: "relu/" + name, reps: 500, runs: 3, bound: bound, amd64Only: true, setup: func(testing.TB) (func(), func()) {
		rng := tensor.NewRNG(7)
		type act struct {
			dst, src []float64
			mask     []bool
		}
		var acts []act
		for _, n := range []int{8 * models.VisionH * models.VisionW, 16 * models.VisionH / 2 * models.VisionW / 2, 32} {
			a := act{make([]float64, convBatch*n), rng.Randn(1, convBatch*n).Data, make([]bool, convBatch*n)}
			tensor.ReluForwardGo(a.dst, a.src, a.mask)
			acts = append(acts, a)
		}
		run := func(f func(dst, src []float64, mask []bool)) func() {
			return func() {
				for _, a := range acts {
					f(a.dst, a.src, a.mask)
				}
			}
		}
		return run(twin), run(kernel)
	}}
}

// glueRow gates a data-movement kernel against its Go twin.
func glueRow(name string, bound float64, sides func(rng *tensor.RNG) (twin, kernel func())) gate {
	return gate{name: "glue/" + name, reps: 2000, runs: 3, bound: bound, amd64Only: true, setup: func(testing.TB) (func(), func()) {
		return sides(tensor.NewRNG(5))
	}}
}

type gemmShape struct {
	m, k, n        int
	transA, transB bool
}

// gemmRow gates the platform Gemm against GoBackend over shapes, the
// gradient passes accumulating as Linear's do; setup fails unless both
// return the same bits.
func gemmRow(model string, bound float64, shapes []gemmShape) gate {
	return gate{name: "gemm/" + model, reps: 500, runs: 3, bound: bound, amd64Only: true, setup: func(t testing.TB) (func(), func()) {
		rng := tensor.NewRNG(9)
		a, b, dst := make([][]float64, len(shapes)), make([][]float64, len(shapes)), make([][]float64, len(shapes))
		for i, s := range shapes {
			a[i], b[i] = rng.Uniform(-1, 1, s.m*s.k).Data, rng.Uniform(-1, 1, s.k*s.n).Data
			dst[i] = make([]float64, s.m*s.n)
		}
		all := func(be tensor.Backend) func() {
			return func() {
				for i, s := range shapes {
					be.Gemm(dst[i], a[i], b[i], s.m, s.k, s.n, s.transA, s.transB, s.transA)
				}
			}
		}
		for i, s := range shapes {
			got, want := make([]float64, s.m*s.n), make([]float64, s.m*s.n)
			tensor.CurrentBackend().Gemm(got, a[i], b[i], s.m, s.k, s.n, s.transA, s.transB, s.transA)
			tensor.GoBackend{}.Gemm(want, a[i], b[i], s.m, s.k, s.n, s.transA, s.transB, s.transA)
			if !bitsEqual(got, want) {
				t.Fatalf("%s shape %+v: platform and go Gemm differ", model, s)
			}
		}
		return all(tensor.GoBackend{}), all(tensor.CurrentBackend())
	}}
}

// dirichletRow gates DirichletInto against its twin, or against the
// math/rand sampler; setup fails unless all three draw the same bits.
func dirichletRow(name string, bound float64, mathrandRef bool) gate {
	return gate{name: "dirichlet/" + name, reps: 10, runs: 3, bound: bound, amd64Only: true, setup: func(t testing.TB) (func(), func()) {
		const n, beta = 1_000_000, 0.5
		p, q, s := make([]float64, n), make([]float64, n), make([]float64, n)
		tensor.NewRNG(1).DirichletInto(p, beta)
		tensor.NewRNG(1).DirichletIntoGo(s, beta)
		dirichletMathRand(rand.New(rand.NewSource(1)), q, beta)
		for i := range p {
			if math.Float64bits(p[i]) != math.Float64bits(q[i]) || math.Float64bits(s[i]) != math.Float64bits(q[i]) {
				t.Fatalf("entry %d: ring %v, scalar %v, mathrand %v", i, p[i], s[i], q[i])
			}
		}
		seed := int64(0)
		ring := func() { seed++; tensor.NewRNG(seed).DirichletInto(p, beta) }
		if mathrandRef {
			return func() { seed++; dirichletMathRand(rand.New(rand.NewSource(seed)), q, beta) }, ring
		}
		return func() { seed++; tensor.NewRNG(seed).DirichletIntoGo(s, beta) }, ring
	}}
}

// dirichletMathRand is tensor.RNG.DirichletInto as it was before Gamma
// read the ring: the same draws through rand.Rand's Float64 and
// NormFloat64, d and c recomputed per draw (internal/tensor's exactness
// test keeps the same body as its oracle).
func dirichletMathRand(r *rand.Rand, p []float64, alpha float64) {
	var gamma func(shape float64) float64
	gamma = func(shape float64) float64 {
		if shape < 1 {
			u := r.Float64()
			for u == 0 {
				u = r.Float64()
			}
			x := gamma(shape + 1)
			if e := 1 / shape; e != 2 {
				return x * math.Pow(u, e)
			}
			return x * (u * u)
		}
		d := shape - 1.0/3.0
		c := 1 / math.Sqrt(9*d)
		for {
			x := r.NormFloat64()
			v := 1 + c*x
			if v <= 0 {
				continue
			}
			v = v * v * v
			u := r.Float64()
			if u < 1-0.0331*x*x*x*x {
				return d * v
			}
			if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
				return d * v
			}
		}
	}
	sum := 0.0
	for i := range p {
		p[i] = gamma(alpha)
		sum += p[i]
	}
	if sum == 0 {
		p[r.Intn(len(p))] = 1
		return
	}
	for i := range p {
		p[i] /= sum
	}
}

// wireRow gates the single-pass int8 wire in one direction against the
// five scalar passes it replaced; up encodes each vector as a delta
// against its reference.
func wireRow(dir string, up bool) gate {
	return gate{name: "wire/" + dir, reps: 20, runs: 3, bound: 2.0, amd64Only: true, setup: func(t testing.TB) (func(), func()) {
		const k, n = 8, 6506
		w := newWireBatch(k, n)
		tr, err := fl.NewTransport(fl.TransportOptions{Codec: "int8"})
		if err != nil {
			t.Fatal(err)
		}
		ok := make([]bool, k)
		res, body := make(nn.ParamVector, n), make([]byte, n)
		fivePass := func(dst, vec, ref nn.ParamVector) {
			payload := vec
			if ref != nil {
				for i := range vec {
					res[i] = vec[i] - ref[i]
				}
				payload = res
			}
			lo, hi := tensor.DeltaRangeGo(payload, nil)
			scale := (hi - lo) / 255
			tensor.QuantDeltaGo(body, payload, nil, lo, scale)
			tensor.DequantAddGo(dst, body, nil, lo, scale)
			if ref != nil {
				for i := range dst {
					dst[i] += ref[i]
				}
			}
		}
		if !up {
			return func() {
					for j := range w.vecs {
						fivePass(w.dsts[j], w.vecs[j], nil)
					}
				}, func() {
					tr.DownAll(w.dsts, w.clients, w.vecs, fl.Limit(1))
				}
		}
		return func() {
				for j := range w.vecs {
					fivePass(w.dsts[j], w.vecs[j], w.refs[j])
				}
			}, func() {
				tr.UpAll(w.dsts, ok, w.clients, w.vecs, w.refs, fl.Limit(1))
			}
	}}
}

// twoPassUp is an int8 delta round trip with the delta in passes of its
// own: the residual vec−ref into res, the codec without a reference, ref
// added back into dst. It returns the encode buffer for reuse.
func twoPassUp(t testing.TB, dst, vec, ref, res nn.ParamVector, buf []byte) []byte {
	var codec nn.Int8Codec
	res, ref = res[:len(vec)], ref[:len(vec)]
	for i, v := range vec {
		res[i] = v - ref[i]
	}
	buf = codec.EncodeDelta(buf[:0], res, nil)
	if _, err := codec.DecodeDelta(dst, buf, nil); err != nil {
		t.Fatal(err)
	}
	for i, r := range ref[:len(dst)] {
		dst[i] += r
	}
	return buf
}

// wireBatch is one round's worth of wire payloads: vecs[i] a small
// perturbation of refs[i], dsts[i] its own destination, clients the
// senders 0..k-1.
type wireBatch struct {
	clients          []int
	vecs, refs, dsts []nn.ParamVector
}

func newWireBatch(k, n int) wireBatch {
	rng := tensor.NewRNG(1)
	w := wireBatch{clients: make([]int, k), vecs: make([]nn.ParamVector, k), refs: make([]nn.ParamVector, k), dsts: make([]nn.ParamVector, k)}
	for i := range w.vecs {
		w.clients[i] = i
		w.vecs[i], w.refs[i] = make(nn.ParamVector, n), make(nn.ParamVector, n)
		for j := range w.vecs[i] {
			w.refs[i][j] = rng.Normal(0, 1)
			w.vecs[i][j] = w.refs[i][j] + 0.01*rng.Normal(0, 1)
		}
		w.dsts[i] = w.refs[i].Clone() // touched: no page faults on the clock
	}
	return w
}

// convBatch is the batch of the conv rows.
const convBatch = 50

type convLayer struct {
	conv    *nn.Conv2D
	x, grad *tensor.Tensor
}

// convLayers are the CNN's two convolutions with a batch of inputs and
// output gradients each.
func convLayers() []convLayer {
	rng := tensor.NewRNG(1)
	var layers []convLayer
	for _, c := range []struct{ inC, side, outC int }{{models.VisionC, models.VisionH, 8}, {8, models.VisionH / 2, 16}} {
		conv := nn.NewConv2D(c.inC, c.side, c.side, c.outC, rng)
		layers = append(layers, convLayer{conv, rng.Randn(1, convBatch, conv.InFeatures()), rng.Randn(1, convBatch, conv.OutFeatures())})
	}
	return layers
}

// winoLayer is one of the CNN's convolutions on its Winograd state, with
// filters, a transformed batch and an output gradient.
type winoLayer struct {
	p      *tensor.Winograd
	w      []float64
	dy     []float32
	dW, dB []float64
}

// winoLayers builds the CNN's two convolutions at a batch and runs a
// forward pass on each; setup fails unless SetWeights and SetWeightsGo
// give the same forward pass and input gradient, and GradParams and
// GradParamsGo the same gradients.
func winoLayers(t testing.TB, batch int) []winoLayer {
	rng := tensor.NewRNG(10)
	narrow := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(rng.Normal(0, 1))
		}
		return v
	}
	var layers []winoLayer
	for i, c := range []struct{ inC, side, outC int }{{models.VisionC, models.VisionH, 8}, {8, models.VisionH / 2, 16}} {
		padded, plane := (c.side+2)*(c.side+2), c.side*c.side
		l := winoLayer{tensor.NewWinograd(tensor.ConvGeom{InC: c.inC, InH: c.side, InW: c.side, KH: 3, KW: 3, Stride: 1, Pad: 1}, c.outC),
			rng.Randn(1, c.outC*c.inC*9).Data, narrow(batch * c.outC * padded), make([]float64, c.outC*c.inC*9), make([]float64, c.outC)}
		in, bias := narrow(batch*c.inC*padded), rng.Randn(1, c.outC).Data
		var outs [2][4][]float64
		for side, set := range []func([]float64){l.p.SetWeights, l.p.SetWeightsGo} {
			o := &outs[side]
			*o = [4][]float64{make([]float64, batch*c.outC*plane), make([]float64, batch*c.inC*plane), make([]float64, len(l.w)), make([]float64, c.outC)}
			set(l.w)
			l.p.Forward(o[0], in, bias, batch)
			l.p.GradInput(o[1], l.dy, batch)
			[]func([]float64, []float64, []float32, int){l.p.GradParams, l.p.GradParamsGo}[side](o[2], o[3], l.dy, batch)
		}
		for k := range outs[0] {
			if !bitsEqual(outs[0][k], outs[1][k]) {
				t.Fatalf("conv %d: the kernels and their twins differ in output %d", i, k)
			}
		}
		layers = append(layers, l)
	}
	return layers
}

// singleMutexLazy is the lease path the ID-sharded cache replaced — one
// mutex over the whole cache, row synthesis under that lock, and an
// O(resident) eviction scan — kept frozen as the striped-cache row's
// reference.
type singleMutexLazy struct {
	mu       sync.Mutex
	base     *data.Dataset
	asg      *data.Assignment
	capacity int
	cache    map[int]*smShard
	tick     uint64
}

type smShard struct {
	ds     *data.Dataset
	leases int
	used   uint64
}

func (l *singleMutexLazy) Shard(id int) *data.Dataset {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e, ok := l.cache[id]; ok {
		l.tick++
		e.leases++
		e.used = l.tick
		return e.ds
	}
	ds := l.base.Subset(l.asg.Rows(id)) // synthesized under the global lock
	for len(l.cache) >= l.capacity {
		victim, best := -1, uint64(0)
		for cid, e := range l.cache {
			if e.leases > 0 {
				continue
			}
			if victim < 0 || e.used < best {
				victim, best = cid, e.used
			}
		}
		if victim < 0 {
			break
		}
		delete(l.cache, victim)
	}
	l.tick++
	l.cache[id] = &smShard{ds: ds, leases: 1, used: l.tick}
	return ds
}

func (l *singleMutexLazy) Release(id int) {
	l.mu.Lock()
	l.cache[id].leases--
	l.mu.Unlock()
}
