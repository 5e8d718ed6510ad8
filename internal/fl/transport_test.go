package fl

import (
	"math"
	"reflect"
	"testing"

	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

func testVec(rng *tensor.RNG, n int) nn.ParamVector {
	v := make(nn.ParamVector, n)
	for i := range v {
		v[i] = rng.Normal(0, 1)
	}
	return v
}

// TestTransportNilPassThrough pins the nil-receiver contract every
// algorithm relies on when driven outside fl.Run.
func TestTransportNilPassThrough(t *testing.T) {
	var tr *Transport
	vec := nn.ParamVector{1, 2, 3}
	if got := tr.Down(nil, 0, vec); &got[0] != &vec[0] {
		t.Fatal("nil transport Down must return the input vector")
	}
	if got, ok := tr.Up(nil, 0, vec, nil); !ok || &got[0] != &vec[0] {
		t.Fatal("nil transport Up must pass through on time")
	}
	if got := tr.Broadcast(nil, []int{0, 1}, vec); &got[0] != &vec[0] {
		t.Fatal("nil transport Broadcast must return the input vector")
	}
	tr.BeginRound(0, []int{0, 1}, nil)
	if d, u, s := tr.EndRound(); d != 0 || u != 0 || s != 0 {
		t.Fatalf("nil transport accounted %d/%d/%d", d, u, s)
	}
	if !tr.PassThrough() {
		t.Fatal("nil transport must report PassThrough")
	}
}

// TestTransportIdentityZeroCopy pins the reference wire: identity codec
// returns the input slices untouched (no decode copy) while still
// charging byte-accurate traffic.
func TestTransportIdentityZeroCopy(t *testing.T) {
	tr, err := NewTransport(TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(1)
	vec := testVec(rng, 100)
	tr.BeginRound(0, []int{3, 7, -1}, rng.Split())

	if got := tr.Down(nil, 3, vec); &got[0] != &vec[0] {
		t.Fatal("identity Down must be zero-copy")
	}
	if got := tr.Broadcast(nil, []int{3, 7, -1}, vec); &got[0] != &vec[0] {
		t.Fatal("identity Broadcast must be zero-copy")
	}
	if got, ok := tr.Up(nil, 7, vec, vec); !ok || &got[0] != &vec[0] {
		t.Fatal("identity Up must be zero-copy and on time")
	}

	perPayload := (nn.IdentityCodec{}).EncodedSize(100)
	down, up, stragglers := tr.EndRound()
	if want := 3 * perPayload; down != want { // 1 Down + 2 Broadcast recipients
		t.Fatalf("down bytes %d, want %d", down, want)
	}
	if up != perPayload {
		t.Fatalf("up bytes %d, want %d", up, perPayload)
	}
	if stragglers != 0 {
		t.Fatalf("stragglers %d, want 0", stragglers)
	}
	if c := tr.totals(); c.BytesDown != down || c.BytesUp != up {
		t.Fatalf("totals %d/%d, want %d/%d", c.BytesDown, c.BytesUp, down, up)
	}
}

// TestTransportLossyDelta pins the delta path: an int8 upload encoded
// against a reference decodes within the quantization bound of the
// *residual* range — far tighter than quantizing the raw vector — and
// dropped top-k coordinates stay at the reference instead of zero.
func TestTransportLossyDelta(t *testing.T) {
	rng := tensor.NewRNG(2)
	ref := testVec(rng, 512)
	vec := ref.Clone()
	// Perturb a little: the residual range is ~1e-2 while the value range is ~1.
	resLo, resHi := math.Inf(1), math.Inf(-1)
	for i := range vec {
		d := 0.01 * rng.Normal(0, 1)
		vec[i] += d
		resLo = math.Min(resLo, d)
		resHi = math.Max(resHi, d)
	}

	tr, err := NewTransport(TransportOptions{Codec: "int8"})
	if err != nil {
		t.Fatal(err)
	}
	tr.BeginRound(0, []int{0}, nil)
	dst := make(nn.ParamVector, len(vec))
	got, ok := tr.Up(dst, 0, vec, ref)
	if !ok {
		t.Fatal("upload missed a deadline that does not exist")
	}
	bound := (resHi - resLo) / 510 * (1 + 1e-9)
	for i := range vec {
		if math.Abs(got[i]-vec[i]) > bound {
			t.Fatalf("delta int8: element %d error %v > residual bound %v", i, math.Abs(got[i]-vec[i]), bound)
		}
	}

	// topk delta: unsent coordinates must equal the reference bit-exactly.
	tr2, err := NewTransport(TransportOptions{Codec: "topk:0.1"})
	if err != nil {
		t.Fatal(err)
	}
	tr2.BeginRound(0, []int{0}, nil)
	got2, _ := tr2.Up(make(nn.ParamVector, len(vec)), 0, vec, ref)
	unchanged := 0
	for i := range got2 {
		if got2[i] == ref[i] {
			unchanged++
		}
	}
	if want := len(vec) - (nn.TopKCodec{Frac: 0.1}).Keep(len(vec)); unchanged < want {
		t.Fatalf("topk delta: %d coordinates at the reference, want at least %d", unchanged, want)
	}
}

// TestTransportDeadlineStragglers pins straggler semantics: with a slow
// link and a tight deadline, uploads past the budget report ok=false,
// each straggler is counted exactly once, later uploads from the same
// client are skipped, and the selection is a deterministic function of
// the seed.
func TestTransportDeadlineStragglers(t *testing.T) {
	rng := tensor.NewRNG(9)
	vec := testVec(rng, 25_000) // 200 KB identity payload
	clients := []int{0, 1, 2, 3, 4, 5, 6, 7}

	run := func(seed int64) (missed []int, stragglers int) {
		tr, err := NewTransport(TransportOptions{Network: "edge", DeadlineSec: 5})
		if err != nil {
			t.Fatal(err)
		}
		tr.BeginRound(0, clients, tensor.NewRNG(seed))
		tr.Broadcast(nil, clients, vec)
		for _, ci := range clients {
			if _, ok := tr.Up(nil, ci, vec, nil); !ok {
				missed = append(missed, ci)
				// A second upload from a straggler must also fail, without
				// double-counting.
				if _, ok := tr.Up(nil, ci, vec, nil); ok {
					t.Fatalf("client %d: upload after straggling succeeded", ci)
				}
			}
		}
		_, _, s := tr.EndRound()
		return missed, s
	}

	missedA, stragglersA := run(42)
	missedB, stragglersB := run(42)
	if !reflect.DeepEqual(missedA, missedB) {
		t.Fatalf("straggler selection not deterministic: %v vs %v", missedA, missedB)
	}
	if stragglersA != len(missedA) || stragglersA != stragglersB {
		t.Fatalf("straggler count %d/%d, want %d (each once)", stragglersA, stragglersB, len(missedA))
	}
	// 200 KB down (0.8 s at median edge rates) plus 200 KB up (3.2 s)
	// against a 5 s deadline: the jittered fleet must split — some make
	// it, some miss — or the scenario tests nothing.
	if len(missedA) == 0 || len(missedA) == len(clients) {
		t.Fatalf("degenerate straggler scenario: %d of %d missed", len(missedA), len(clients))
	}

	// A different seed should eventually produce a different fleet; scan a
	// few to avoid flakiness.
	different := false
	for seed := int64(43); seed < 53; seed++ {
		if m, _ := run(seed); !reflect.DeepEqual(m, missedA) {
			different = true
			break
		}
	}
	if !different {
		t.Fatal("straggler selection ignores the network RNG stream")
	}
}

// TestTransportIdealNetworkNeverStraggles pins that deadlines only bite
// when the link model charges time.
func TestTransportIdealNetworkNeverStraggles(t *testing.T) {
	tr, err := NewTransport(TransportOptions{DeadlineSec: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(1)
	vec := testVec(rng, 10_000)
	tr.BeginRound(0, []int{0}, rng.Split())
	for i := 0; i < 100; i++ {
		if _, ok := tr.Up(nil, 0, vec, nil); !ok {
			t.Fatal("ideal network produced a straggler")
		}
	}
}

// TestNetworkByName pins the preset table and its error path.
func TestNetworkByName(t *testing.T) {
	for _, name := range []string{"", "none", "fiber", "wifi", "lte", "edge"} {
		m, err := NetworkByName(name)
		if err != nil {
			t.Fatalf("NetworkByName(%q): %v", name, err)
		}
		if name == "" || name == "none" {
			if !m.Ideal() {
				t.Fatalf("%q must be ideal", name)
			}
		} else if m.Ideal() || m.Name != name {
			t.Fatalf("%q resolved to %+v", name, m)
		}
	}
	if _, err := NetworkByName("starlink"); err == nil {
		t.Fatal("unknown network accepted")
	}
	if err := (TransportOptions{Codec: "zip"}).Validate(); err == nil {
		t.Fatal("bad codec accepted")
	}
	if err := (TransportOptions{DeadlineSec: -1}).Validate(); err == nil {
		t.Fatal("negative deadline accepted")
	}
}

// TestTransportRetryAfterRejectedDecode pins the contract Up's retry loop
// leans on: every algorithm decodes an upload in place over the vector a
// retry re-encodes, so a rejected attempt must leave that vector
// bit-unchanged. An in-place upload whose first attempt is truncated (or
// header-corrupted) and whose second is clean returns the bits of a
// fault-free upload, for every lossy codec.
func TestTransportRetryAfterRejectedDecode(t *testing.T) {
	rng := tensor.NewRNG(31)
	ref := testVec(rng, 777)
	vec := ref.Clone()
	for i := range vec {
		vec[i] += 0.01 * rng.Normal(0, 1)
	}
	for _, codec := range []string{"fp16", "int8", "topk:0.25"} {
		for _, faults := range []FaultOptions{{TruncateRate: 0.5}, {CorruptRate: 0.5}} {
			plan := NewFaultPlan(faults, 9)
			damaged := func(id, attempt int) bool {
				return plan.Truncates(0, id, attempt) || plan.Corrupts(0, id, attempt)
			}
			client := 0
			for !damaged(client, 0) || damaged(client, 1) {
				client++
			}

			clean, err := NewTransport(TransportOptions{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			clean.BeginRound(0, []int{client}, nil)
			want, ok := clean.Up(make(nn.ParamVector, len(vec)), client, vec, ref)
			if !ok {
				t.Fatalf("%s: fault-free upload lost", codec)
			}

			tr, err := NewTransport(TransportOptions{Codec: codec, Retries: 1})
			if err != nil {
				t.Fatal(err)
			}
			tr.SetFaultPlan(plan)
			tr.BeginRound(0, []int{client}, nil)
			params := vec.Clone()
			got, ok := tr.Up(params, client, params, ref)
			if !ok || tr.cur.Retries != 1 {
				t.Fatalf("%s %+v: ok=%v after %d retries, want an accepted second attempt", codec, faults, ok, tr.cur.Retries)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s %+v: element %d = %v after a rejected attempt, fault-free upload gives %v", codec, faults, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTransportInt8ZeroAlloc pins the steady-state wire at
// server_heavy_k64's shape: after one warm-up call has sized the encode
// buffer, a Down and an in-place delta Up through the int8 codec allocate
// nothing.
func TestTransportInt8ZeroAlloc(t *testing.T) {
	const n = 51_978
	rng := tensor.NewRNG(32)
	global, ref := testVec(rng, n), testVec(rng, n)
	params, dst := ref.Clone(), make(nn.ParamVector, n)
	tr, err := NewTransport(TransportOptions{Codec: "int8"})
	if err != nil {
		t.Fatal(err)
	}
	tr.BeginRound(0, []int{0}, nil)
	roundTrip := func() {
		tr.Down(dst, 0, global)
		if _, ok := tr.Up(params, 0, params, ref); !ok {
			t.Fatal("upload lost on the fault-free wire")
		}
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(10, roundTrip); allocs != 0 {
		t.Fatalf("int8 Down + in-place Up allocate %v objects per round trip, want 0", allocs)
	}
}

// TestTransportInt8HugeRange: a finite vector never panics the wire. A
// range whose width is finite but within an ulp of MaxFloat64 used to be
// encoded under a header whose grid top was +Inf, which the codec's own
// Decode refuses — and Down and Broadcast panic on a refused round trip.
func TestTransportInt8HugeRange(t *testing.T) {
	tr, err := NewTransport(TransportOptions{Codec: "int8"})
	if err != nil {
		t.Fatal(err)
	}
	tr.BeginRound(0, []int{0}, nil)
	for _, vec := range []nn.ParamVector{
		{math.MaxFloat64, 0, 1, 2},
		{-math.MaxFloat64, 0.5, 1},
		{-math.MaxFloat64 / 2, math.MaxFloat64 / 2, 0},
	} {
		down := tr.Down(nil, 0, vec)
		cast := tr.Broadcast(nil, []int{0}, vec)
		up, ok := tr.Up(make(nn.ParamVector, len(vec)), 0, vec, make(nn.ParamVector, len(vec)))
		if !ok {
			t.Fatalf("%v: upload lost on the fault-free wire", vec)
		}
		for _, got := range []nn.ParamVector{down, cast, up} {
			for i, v := range got {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%v: element %d crossed the wire as %v", vec, i, v)
				}
			}
		}
	}
}
