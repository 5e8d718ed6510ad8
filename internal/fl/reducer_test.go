package fl

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// randUploads builds k uploads of length n with weights.
func randUploads(rng *tensor.RNG, k, n int) ([]nn.ParamVector, []float64) {
	ups := make([]nn.ParamVector, k)
	ws := make([]float64, k)
	for i := range ups {
		v := make(nn.ParamVector, n)
		for j := range v {
			v[j] = rng.Normal(0, 1)
		}
		ups[i] = v
		ws[i] = float64(1 + rng.Intn(20))
	}
	return ups, ws
}

// allReducers lists this package's rules plus the nil legacy path.
func allReducers() []Reducer {
	return []Reducer{
		nil, // legacy weighted-mean path
		MeanReducer{},
		&TrimmedMeanReducer{},
		&TrimmedMeanReducer{Frac: 0.4},
		&MedianReducer{},
	}
}

func reducerLabel(r Reducer) string {
	if r == nil {
		return "nil"
	}
	return r.Name()
}

func TestReduceUploadsNilMatchesWeightedMean(t *testing.T) {
	rng := tensor.NewRNG(1)
	ups, ws := randUploads(rng, 7, 129)
	got, err := ReduceUploads(nil, ups, ws)
	if err != nil {
		t.Fatal(err)
	}
	want := nn.WeightedMeanVectors(ups, ws)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("nil reducer must be bit-identical to nn.WeightedMeanVectors")
	}
	// And the explicit MeanReducer must match the nil path bit-for-bit.
	got2, err := ReduceUploads(MeanReducer{}, ups, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, got2) {
		t.Fatal("MeanReducer must be bit-identical to the nil legacy path")
	}
}

// TestReducersPermutationInvariant: shuffling the clients (uploads and
// weights together) must not change the aggregate. Rank-based rules sort
// each column, so they are bitwise invariant; the mean sums in input
// order, so it gets a small tolerance.
func TestReducersPermutationInvariant(t *testing.T) {
	rng := tensor.NewRNG(2)
	ups, ws := randUploads(rng, 9, 200)
	perm := rng.Perm(len(ups))
	permUps := make([]nn.ParamVector, len(ups))
	permWs := make([]float64, len(ws))
	for i, p := range perm {
		permUps[i] = ups[p]
		permWs[i] = ws[p]
	}
	for _, r := range allReducers() {
		a, err := ReduceUploads(r, ups, ws)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ReduceUploads(r, permUps, permWs)
		if err != nil {
			t.Fatal(err)
		}
		exact := true
		if r == nil {
			exact = false
		} else if _, isMean := r.(MeanReducer); isMean {
			exact = false
		}
		for j := range a {
			if exact && a[j] != b[j] {
				t.Fatalf("%s: coordinate %d changed under permutation: %v vs %v",
					reducerLabel(r), j, a[j], b[j])
			}
			if !exact && math.Abs(a[j]-b[j]) > 1e-12 {
				t.Fatalf("%s: coordinate %d moved more than rounding under permutation: %v vs %v",
					reducerLabel(r), j, a[j], b[j])
			}
		}
	}
}

// TestReducersWorkerCountInvariant: the coordinate-wise fan-out must be
// bit-identical at every worker cap.
func TestReducersWorkerCountInvariant(t *testing.T) {
	rng := tensor.NewRNG(3)
	ups, ws := randUploads(rng, 8, 10_000) // > reduceChunk so several chunks exist
	for _, mk := range []func(w Workers) Reducer{
		func(w Workers) Reducer { return &TrimmedMeanReducer{W: w} },
		func(w Workers) Reducer { return &MedianReducer{W: w} },
	} {
		serial, err := ReduceUploads(mk(Limit(1)), ups, ws)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := ReduceUploads(mk(Limit(8)), ups, ws)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, wide) {
			t.Fatalf("%s: workers=1 vs workers=8 differ", mk(Limit(0)).Name())
		}
	}
}

// TestReducerBreakdown: with f < n/2 scaled-gradient attackers, the
// robust rules stay near the honest centroid while the mean is dragged
// arbitrarily far.
func TestReducerBreakdown(t *testing.T) {
	rng := tensor.NewRNG(4)
	const k, f, n = 11, 4, 64 // f < k/2
	centroid := make(nn.ParamVector, n)
	for j := range centroid {
		centroid[j] = rng.Normal(0, 1)
	}
	ups := make([]nn.ParamVector, k)
	for i := range ups {
		v := make(nn.ParamVector, n)
		if i < f { // attacker: huge scaled opposite of the centroid
			for j := range v {
				v[j] = -1000 * centroid[j]
			}
		} else { // honest: centroid plus small noise
			for j := range v {
				v[j] = centroid[j] + rng.Normal(0, 0.01)
			}
		}
		ups[i] = v
	}
	dist := func(r Reducer) float64 {
		out, err := ReduceUploads(r, ups, nil)
		if err != nil {
			t.Fatal(err)
		}
		return math.Sqrt(out.DistanceSq(centroid))
	}
	honestScale := math.Sqrt(centroid.NormSq())
	meanD := dist(MeanReducer{})
	if meanD < 10*honestScale {
		t.Fatalf("mean should be dragged far by %d/%d scaled attackers, distance %v (centroid norm %v)",
			f, k, meanD, honestScale)
	}
	for _, r := range []Reducer{&TrimmedMeanReducer{Frac: 0.4}, &MedianReducer{}} {
		if d := dist(r); d > 0.1*honestScale {
			t.Fatalf("%s should recover the honest centroid with %d/%d attackers, distance %v (centroid norm %v)",
				r.Name(), f, k, d, honestScale)
		}
	}
}

func TestReduceUploadsDropsNonFinite(t *testing.T) {
	rng := tensor.NewRNG(5)
	ups, ws := randUploads(rng, 5, 30)
	clean, err := ReduceUploads(nil, ups[1:], ws[1:])
	if err != nil {
		t.Fatal(err)
	}
	// Poison upload 0 with NaN: the screen must drop exactly it, leaving
	// the aggregate of the remaining four.
	ups[0][7] = math.NaN()
	got, err := ReduceUploads(nil, ups, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, clean) {
		t.Fatal("NaN upload must be dropped, leaving the clean aggregate")
	}
	for _, r := range allReducers() {
		out, err := ReduceUploads(r, ups, ws)
		if err != nil {
			t.Fatalf("%s: %v", reducerLabel(r), err)
		}
		if !tensor.AllFinite(out) {
			t.Fatalf("%s: poisoned upload leaked non-finite values into the aggregate", reducerLabel(r))
		}
	}
	// ±Inf is screened the same way.
	ups[2][0] = math.Inf(1)
	if out, err := ReduceUploads(&MedianReducer{}, ups, ws); err != nil || !tensor.AllFinite(out) {
		t.Fatalf("Inf upload must be dropped: out=%v err=%v", out, err)
	}
	// All-poisoned rounds surface ErrNoFiniteUploads, never a NaN model.
	for i := range ups {
		ups[i][0] = math.Inf(-1)
	}
	if _, err := ReduceUploads(nil, ups, ws); !errors.Is(err, ErrNoFiniteUploads) {
		t.Fatalf("want ErrNoFiniteUploads, got %v", err)
	}
}

func TestReduceUploadsRejectsMalformed(t *testing.T) {
	rng := tensor.NewRNG(6)
	ups, ws := randUploads(rng, 4, 16)
	if _, err := ReduceUploads(nil, nil, nil); err == nil {
		t.Fatal("empty upload list must error")
	}
	ragged := append([]nn.ParamVector(nil), ups...)
	ragged[2] = ragged[2][:10]
	if _, err := ReduceUploads(nil, ragged, ws); err == nil {
		t.Fatal("ragged upload lengths must error")
	}
	if _, err := ReduceUploads(nil, ups, ws[:2]); err == nil {
		t.Fatal("weight-count mismatch must error")
	}
	bad := append([]float64(nil), ws...)
	bad[1] = -3
	if _, err := ReduceUploads(nil, ups, bad); err == nil {
		t.Fatal("negative weight must error")
	}
	bad[1] = math.NaN()
	if _, err := ReduceUploads(nil, ups, bad); err == nil {
		t.Fatal("NaN weight must error")
	}
}

func TestReducerByName(t *testing.T) {
	for name, want := range map[string]string{
		"":            "mean",
		"mean":        "mean",
		"median":      "median",
		"trimmed":     "trimmed:0.25",
		"trimmed:0.4": "trimmed:0.40",
	} {
		r, err := ReducerByName(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if r.Name() != want {
			t.Fatalf("%q resolved to %q, want %q", name, r.Name(), want)
		}
		// Every named rule takes the run's worker budget (fl.Run injects
		// it through WorkersSetter).
		if _, ok := r.(WorkersSetter); !ok {
			t.Fatalf("%q resolved to a %T, which cannot take the run's workers", name, r)
		}
	}
	for _, name := range []string{"bogus", "trimmed:0.6", "trimmed:-1", "trimmed:x", "trimmed:NaN", "trimmed:0.2junk", "trimmed:"} {
		if _, err := ReducerByName(name); err == nil {
			t.Fatalf("%q should not resolve", name)
		}
	}
}

// FuzzReducer hammers every rule with arbitrary client counts, vector
// lengths and raw bit patterns (including NaN/Inf): ReduceUploads must
// never panic, and on success must return a vector of the model
// dimension.
func FuzzReducer(f *testing.F) {
	f.Add(uint8(3), uint8(10), []byte{1, 2, 3, 4, 5, 6, 7, 8}, false)
	f.Add(uint8(1), uint8(1), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf8, 0x7f}, false) // NaN bits
	f.Add(uint8(9), uint8(33), []byte{}, true)
	f.Fuzz(func(t *testing.T, kRaw, nRaw uint8, raw []byte, ragged bool) {
		k := 1 + int(kRaw)%16
		n := 1 + int(nRaw)%128
		ups := make([]nn.ParamVector, k)
		ws := make([]float64, k)
		bi := 0
		nextF64 := func() float64 {
			var u uint64
			for b := 0; b < 8; b++ {
				if len(raw) > 0 {
					u = u<<8 | uint64(raw[bi%len(raw)])
					bi++
				}
			}
			return math.Float64frombits(u)
		}
		for i := range ups {
			ln := n
			if ragged && i == k-1 && k > 1 {
				ln = n/2 + 1
			}
			v := make(nn.ParamVector, ln)
			for j := range v {
				v[j] = nextF64()
			}
			ups[i] = v
			ws[i] = float64(1 + i)
		}
		for _, r := range allReducers() {
			out, err := ReduceUploads(r, ups, ws)
			if err != nil {
				continue // malformed or fully poisoned input: error is the contract
			}
			if len(out) != n {
				t.Fatalf("%s: output length %d, want %d", reducerLabel(r), len(out), n)
			}
		}
	})
}

// screenThenFold is the order ReduceUploads ran the mean rule in before
// it folded first: drop every upload with a NaN or ±Inf coordinate, then
// fold what is left.
func screenThenFold(r Reducer, ups []nn.ParamVector, ws []float64) (nn.ParamVector, error) {
	var kept []nn.ParamVector
	var keptW []float64
	for i, u := range ups {
		if slices.ContainsFunc(u, func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }) {
			continue
		}
		kept = append(kept, u)
		if ws != nil {
			keptW = append(keptW, ws[i])
		}
	}
	if len(kept) == 0 {
		return nil, ErrNoFiniteUploads
	}
	if r == nil {
		r = MeanReducer{}
	}
	return r.Reduce(kept, keptW), nil
}

// TestReduceUploadsFoldFirst holds the mean rule's fold-first screen to
// screen-then-fold, bit for bit and error for error, on the single-group
// fold (K = 10) and the tree (K = 200), weighted and unweighted.
func TestReduceUploadsFoldFirst(t *testing.T) {
	const dim = 37
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		poison func(ups []nn.ParamVector, ws []float64)
	}{
		{"nan", func(ups []nn.ParamVector, _ []float64) { ups[3][5] = nan }},
		{"+inf", func(ups []nn.ParamVector, _ []float64) { ups[3][5] = inf }},
		{"-inf", func(ups []nn.ParamVector, _ []float64) { ups[len(ups)-1][0] = -inf }},
		{"+inf and -inf in one coordinate", func(ups []nn.ParamVector, _ []float64) {
			ups[1][4], ups[len(ups)-2][4] = inf, -inf
		}},
		{"poisoned upload of weight 0", func(ups []nn.ParamVector, ws []float64) {
			ups[2][6], ups[6][dim-1] = inf, nan
			if ws != nil {
				ws[2], ws[6] = 0, 0
			}
		}},
		{"poisoned upload holds all the weight", func(ups []nn.ParamVector, ws []float64) {
			ups[4][1] = nan
			for i := range ws {
				ws[i] = 0
			}
			if ws != nil {
				ws[4] = 5
			}
		}},
		{"every upload poisoned", func(ups []nn.ParamVector, _ []float64) {
			for i, u := range ups {
				u[i%dim] = []float64{nan, inf, -inf}[i%3]
			}
		}},
		{"finite uploads whose mean overflows", func(ups []nn.ParamVector, ws []float64) {
			for _, u := range ups {
				u[2], u[3] = math.MaxFloat64, -math.MaxFloat64
			}
			for i := range ws {
				ws[i] = 0 // a weighted mean cannot overflow; all-zero weights take the plain one
			}
		}},
	}
	reducers := []Reducer{nil, MeanReducer{}, &MeanReducer{W: Limit(2)}}
	for _, k := range []int{10, 200} {
		for _, weighted := range []bool{false, true} {
			for _, c := range cases {
				for _, r := range reducers {
					ups, ws := randUploads(tensor.NewRNG(int64(k)), k, dim)
					if !weighted {
						ws = nil
					}
					c.poison(ups, ws)
					label := fmt.Sprintf("K=%d weighted=%v %s %s", k, weighted, c.name, reducerLabel(r))
					want, wantErr := screenThenFold(r, ups, ws)
					got, err := ReduceUploads(r, ups, ws)
					if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
						t.Fatalf("%s: error %v, screen-then-fold %v", label, err, wantErr)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: length %d, screen-then-fold %d", label, len(got), len(want))
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s: coordinate %d = %v, screen-then-fold %v", label, i, got[i], want[i])
						}
					}
					if c.name == "finite uploads whose mean overflows" && !(math.IsInf(got[2], 1) && math.IsInf(got[3], -1)) {
						t.Fatalf("%s: coordinates 2, 3 = %v, %v, want the overflow", label, got[2], got[3])
					}
				}
			}
		}
	}
}
