package tensor

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// The twin table. Every dispatched kernel of this package must match its
// Go twin bit for bit, NaN payloads included: that is what lets the pinned
// histories hold on every build. A row says how to call one entry point on
// the kernel, on its twin and on any reference written out, over a shape
// sweep (twin_rows_test.go); one driver does the rest for every row:
//   - it fills the operands from one generator (twinFill), twice: normals,
//     then normals with the shared classes (twinSpecials) planted and the
//     two NaNs meeting at one index of every operand;
//   - it runs each side on its own copy and compares every element of
//     every operand bit for bit, twinGuard elements on each side included,
//     so a kernel writing outside its operands fails;
//   - on the sweep's last case, which every row makes one its assembly
//     takes, each operand one element short must panic with the row's
//     short message: the wrappers, not the assembly, own the bounds.
// The root TestKernelTwinsListed fails on an assembly kernel with no row:
// a new kernel is one row here and one in the root gates_test.go.

type twinRow struct {
	name string
	avx  []string // the assembly kernels only this row holds to their twins
	gate string   // the gates_test.go row timing them, or "none: " and why
	// sides names what runs after the kernel, from side 1; nil is the twin.
	sides []string
	sweep func(yield func(twinCase))
	// values are this kernel's edge values, planted beside the shared
	// classes; the special pass plants 1 + n/rate of them an operand (rate
	// 5 when 0).
	values []float64
	rate   int
	// nanEqual lets two NaNs compare equal whatever their payloads: where
	// two meet in a commutative add or multiply, which survives follows the
	// operand order the Go compiler picks for the twin. Such a row pins the
	// kernel's payloads instead: pin is the SHA-256 of every float operand
	// after every case's kernel side, checked where the backend is avx2.
	nanEqual bool
	pin      string
	free     []int // operands no short check applies to: their length is the shape
	// short is how the wrapper's panic on a short operand begins: its own
	// message, or the runtime's where its check is a Go bounds check.
	short string
	// reach, where the dispatcher can be asked, reports whether the shapes
	// the models run take the assembly: exactly where the backend is avx2.
	reach func() bool
	// refuse are calls with a shape no kernel takes; each must panic with
	// msg in its message.
	refuse []twinRefusal
	// sweepIn and checksIn name the test running the row's sweep and its
	// checks where that keeps the name of a per-kernel test the table
	// replaced; "" is TestKernelTwins/<row>.
	sweepIn, checksIn string
}

type twinRefusal struct {
	msg  string
	call func()
}

// twinCase is one call of a row: operand prototypes (a []float64,
// []float32, []int, []int32, []int64, []byte or []bool each, of which only the
// length counts), a prep that gives the filled operands the structure the
// call needs, or nil, and run, the call on one side (0 the kernel). A call
// with scalar results writes them to an operand of its own.
type twinCase struct {
	what string
	ops  []any
	prep func(rng *RNG, o twinOps)
	run  func(side int, o twinOps)
}

type twinOps []any

func (o twinOps) f(i int) []float64   { return o[i].([]float64) }
func (o twinOps) f32(i int) []float32 { return o[i].([]float32) }
func (o twinOps) ints(i int) []int    { return o[i].([]int) }
func (o twinOps) i32(i int) []int32   { return o[i].([]int32) }
func (o twinOps) i64(i int) []int64   { return o[i].([]int64) }
func (o twinOps) bytes(i int) []byte  { return o[i].([]byte) }
func (o twinOps) mask(i int) []bool   { return o[i].([]bool) }

func f64(n int) []float64 { return make([]float64, n) }
func f32(n int) []float32 { return make([]float32, n) }

// pick returns side's function: the kernel, the twin, then any reference.
func pick[F any](side int, fs ...F) F { return fs[side] }

// twinLengths is 0–13 and a kernel's own edges.
func twinLengths(edges ...int) []int {
	return append([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, edges...)
}

// twinVectors sweeps a row over 0–13 elements and the fold, wire and
// optimizer blocks' edges, protos giving the operands of a length.
func twinVectors(protos func(n int) []any, run func(side int, o twinOps)) func(func(twinCase)) {
	return func(yield func(twinCase)) {
		for _, n := range twinLengths(15, 16, 17, 31, 32, 33, 64, 67) {
			yield(twinCase{what: fmt.Sprintf("n=%d", n), ops: protos(n), run: run})
		}
	}
}

// floats makes k float64 operands of a length.
func floats(k int) func(n int) []any {
	return func(n int) []any {
		ops := make([]any, k)
		for i := range ops {
			ops[i] = f64(n)
		}
		return ops
	}
}

// twinSpecials are the classes every row gets: NaNs of two payloads (quiet
// and positive, signalling and negative; still two NaNs when narrowed),
// ±Inf, ±0, float64 denormals, float32 denormals, magnitudes beyond
// float32 and the end of float64's range.
var twinSpecials = []float64{
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff4000000000abc),
	math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, -2.5e-310,
	1e-40, -3e-45, 1e39, -1e300, math.MaxFloat64,
}

const twinGuard = 16

func TestKernelTwins(t *testing.T) { twinRun(t) }

// The tests below keep the names of per-kernel tests the table replaced:
// each runs the row phases whose sweepIn or checksIn names it.
func TestAxpyMatchesTwin(t *testing.T)                  { twinRun(t) }
func TestFoldKernelsRejectLengthMismatch(t *testing.T)  { twinRun(t) }
func TestNarrowPaddedMatchesTwin(t *testing.T)          { twinRun(t) }
func TestGlueKernelsRejectShortSlices(t *testing.T)     { twinRun(t) }
func TestDotTileMatchesScalarStreams(t *testing.T)      { twinRun(t) }
func TestDotTileRejectsUncheckedSpans(t *testing.T)     { twinRun(t) }
func TestGemmRejectsShortOperands(t *testing.T)         { twinRun(t) }
func TestConvKernelsMatchTwins(t *testing.T)            { twinRun(t) }
func TestWinogradRejectsUncheckedOperands(t *testing.T) { twinRun(t) }
func TestBackendsBitIdentical(t *testing.T)             { t.Run("edges", twinRun) }

// twinRun runs the row phases given to the running test, each once:
// TestKernelTwins runs those given to no other, a subtest a row.
func twinRun(t *testing.T) {
	for _, r := range twinRows {
		sweep := cmp.Or(r.sweepIn, "TestKernelTwins") == t.Name()
		checks := cmp.Or(r.checksIn, "TestKernelTwins") == t.Name()
		run := func(t *testing.T) {
			if sweep {
				twinSweep(t, r)
			}
			if checks {
				twinChecks(t, r)
			}
		}
		if t.Name() != "TestKernelTwins" {
			run(t)
		} else if sweep || checks {
			t.Run(r.name, run)
		}
	}
}

// twinRNG is a row's generator, seeded by its name and a phase.
func twinRNG(r twinRow, phase string) *RNG {
	seed := fnv.New64a()
	seed.Write([]byte(r.name + phase))
	return NewRNG(int64(seed.Sum64()))
}

func twinClasses(r twinRow) ([]float64, int) {
	return append(slices.Clip(twinSpecials), r.values...), cmp.Or(r.rate, 5)
}

// twinSweep runs a row's sweep, comparing the kernel with every other
// side, then holds reach and the pin to the backend.
func twinSweep(t *testing.T, r twinRow) {
	t.Helper()
	rng := twinRNG(r, "")
	sides := append([]string{"kernel"}, r.sides...)
	if r.sides == nil {
		sides = append(sides, "twin")
	}
	classes, rate := twinClasses(r)
	pin := sha256.New()
	r.sweep(func(c twinCase) {
		for _, special := range []bool{false, true} {
			bufs := twinFill(rng, c.ops, special, classes, rate)
			if c.prep != nil {
				c.prep(rng, twinViews(bufs))
			}
			var kernel []any
			for side, name := range sides {
				run := make([]any, len(bufs))
				for i, b := range bufs {
					v := reflect.ValueOf(b)
					run[i] = reflect.AppendSlice(reflect.MakeSlice(v.Type(), 0, v.Len()), v).Interface()
				}
				c.run(side, twinViews(run))
				if side == 0 {
					for _, b := range run {
						binary.Write(pin, binary.LittleEndian, b)
					}
					kernel = run
					continue
				}
				for i := range run {
					if d := twinDiff(kernel[i], run[i], r.nanEqual); d != "" {
						t.Fatalf("%s: %s special=%v: operand %d %s; kernel vs %s", r.name, c.what, special, i, d, name)
					}
				}
			}
		}
	})
	avx2 := defaultBackend.Name() == "avx2"
	if r.reach != nil && r.reach() != avx2 {
		t.Errorf("%s: the models' shapes take the assembly: %v, on a build whose backend is %q", r.name, !avx2, defaultBackend.Name())
	}
	if got := fmt.Sprintf("%x", pin.Sum(nil)); avx2 && r.pin != "" && got != r.pin {
		t.Errorf("%s: AVX2 results hash to %s, pinned %s", r.name, got, r.pin)
	}
}

// twinChecks holds a row's sweep's last case with each operand one
// element short to a panic, then runs the row's refusals.
func twinChecks(t *testing.T, r twinRow) {
	t.Helper()
	rng := twinRNG(r, "/short")
	classes, rate := twinClasses(r)
	var last twinCase
	r.sweep(func(c twinCase) { last = c })
	for i, op := range last.ops {
		if reflect.ValueOf(op).Len() == 0 || slices.Contains(r.free, i) {
			continue
		}
		o := twinViews(twinFill(rng, last.ops, false, classes, rate))
		if last.prep != nil {
			last.prep(rng, o)
		}
		v := reflect.ValueOf(o[i])
		o[i] = v.Slice3(0, v.Len()-1, v.Len()-1).Interface()
		if msg, _ := twinPanic(func() { last.run(0, o) }); r.short == "" || !strings.HasPrefix(msg, r.short) {
			t.Errorf("%s: %s: operand %d one element short: panic %q, want one starting %q", r.name, last.what, i, msg, r.short)
		}
	}
	for _, f := range r.refuse {
		if msg, _ := twinPanic(f.call); !strings.Contains(msg, f.msg) {
			t.Errorf("%s: refusal %q: panic %q", r.name, f.msg, msg)
		}
	}
}

// twinPanic runs f and returns what it panicked with.
func twinPanic(f func()) (msg string, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			msg, panicked = fmt.Sprint(r), true
		}
	}()
	f()
	return "", false
}

// twinFill allocates each prototype's operand between twinGuard guard
// elements a side and fills all of it: float normals (random words, bytes
// and bools, small ints), and in the special pass 1 + n/rate classes
// planted at random in each float operand and the two NaNs at one shared
// index, the first in even operands and the second in odd ones.
func twinFill(rng *RNG, protos []any, special bool, classes []float64, rate int) []any {
	bufs := make([]any, len(protos))
	meet := rng.Intn(1 << 20)
	for k, p := range protos {
		n := reflect.ValueOf(p).Len()
		planted := map[int]float64{}
		for j := 0; special && n > 0 && j <= n/rate; j++ {
			planted[twinGuard+rng.Intn(n)] = classes[rng.Intn(len(classes))]
		}
		if special && n > 0 {
			planted[twinGuard+meet%n] = classes[k%2]
		}
		val := func(i int) float64 {
			if v, ok := planted[i]; ok {
				return v
			}
			return rng.Normal(0, 1)
		}
		switch p.(type) {
		case []float64:
			bufs[k] = twinBuf(n, val)
		case []float32:
			bufs[k] = twinBuf(n, func(i int) float32 { return float32(val(i)) })
		case []int:
			bufs[k] = twinBuf(n, func(int) int { return rng.Intn(64) })
		case []int32:
			bufs[k] = twinBuf(n, func(int) int32 { return int32(rng.Intn(64)) })
		case []int64:
			bufs[k] = twinBuf(n, func(int) int64 { return rng.Int63() - rng.Int63() })
		case []byte:
			bufs[k] = twinBuf(n, func(int) byte { return byte(rng.Intn(256)) })
		case []bool:
			bufs[k] = twinBuf(n, func(int) bool { return rng.Intn(2) == 0 })
		}
	}
	return bufs
}

func twinBuf[T any](n int, val func(int) T) []T {
	b := make([]T, n+2*twinGuard)
	for i := range b {
		b[i] = val(i)
	}
	return b
}

// twinViews returns the operands inside the guards, capacity clipped.
func twinViews(bufs []any) twinOps {
	o := make(twinOps, len(bufs))
	for i, b := range bufs {
		v := reflect.ValueOf(b)
		o[i] = v.Slice3(twinGuard, v.Len()-twinGuard, v.Len()-twinGuard).Interface()
	}
	return o
}

// twinDiff describes the first element where two buffers differ, guards
// included, or returns "".
func twinDiff(kernel, other any, nanEqual bool) string {
	switch k := kernel.(type) {
	case []float64:
		return twinFirst(k, other.([]float64), math.Float64bits, nanEqual)
	case []float32:
		return twinFirst(k, other.([]float32), func(x float32) uint64 { return uint64(math.Float32bits(x)) }, nanEqual)
	case []int:
		return twinFirst(k, other.([]int), func(x int) uint64 { return uint64(x) }, false)
	case []int32:
		return twinFirst(k, other.([]int32), func(x int32) uint64 { return uint64(x) }, false)
	case []int64:
		return twinFirst(k, other.([]int64), func(x int64) uint64 { return uint64(x) }, false)
	case []byte:
		return twinFirst(k, other.([]byte), func(x byte) uint64 { return uint64(x) }, false)
	case []bool:
		return twinFirst(k, other.([]bool), func(x bool) uint64 { return uint64(b2f(x)) }, false)
	}
	panic(fmt.Sprintf("twin operand of type %T", kernel))
}

func twinFirst[T comparable](kernel, other []T, bits func(T) uint64, nanEqual bool) string {
	for i, k := range kernel {
		o := other[i]
		if bits(k) == bits(o) || nanEqual && k != k && o != o {
			continue
		}
		where := "element"
		if i < twinGuard || i >= len(kernel)-twinGuard {
			where = "guard element"
		}
		return fmt.Sprintf("%s %d: %v (%#x), other side %v (%#x)", where, i-twinGuard, k, bits(k), o, bits(o))
	}
	return ""
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
