package fl

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
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
	down := []nn.ParamVector{nil}
	if tr.DownAll(down, []int{0}, []nn.ParamVector{vec}, Limit(1)); &down[0][0] != &vec[0] {
		t.Fatal("nil transport DownAll must return the input vector")
	}
	up, ok := []nn.ParamVector{nil}, []bool{false}
	if tr.UpAll(up, ok, []int{0}, []nn.ParamVector{vec}, []nn.ParamVector{nil}, Limit(1)); !ok[0] || &up[0][0] != &vec[0] {
		t.Fatal("nil transport UpAll must pass through on time")
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

	down := []nn.ParamVector{nil}
	if tr.DownAll(down, []int{3}, []nn.ParamVector{vec}, Limit(4)); &down[0][0] != &vec[0] {
		t.Fatal("identity DownAll must be zero-copy")
	}
	if got := tr.Broadcast(nil, []int{3, 7, -1}, vec); &got[0] != &vec[0] {
		t.Fatal("identity Broadcast must be zero-copy")
	}
	if got, ok := tr.Up(nil, 7, vec, vec); !ok || &got[0] != &vec[0] {
		t.Fatal("identity Up must be zero-copy and on time")
	}

	perPayload := (nn.IdentityCodec{}).EncodedSize(100)
	if len(tr.pending) != 0 || len(tr.encBufs) != 1 || tr.encBufs[0] != nil {
		t.Fatal("the identity wire queued a round trip or grew an encode buffer")
	}
	bytesDown, bytesUp, stragglers := tr.EndRound()
	if want := 3 * perPayload; bytesDown != want { // 1 DownAll + 2 Broadcast recipients
		t.Fatalf("down bytes %d, want %d", bytesDown, want)
	}
	if bytesUp != perPayload {
		t.Fatalf("up bytes %d, want %d", bytesUp, perPayload)
	}
	if stragglers != 0 {
		t.Fatalf("stragglers %d, want 0", stragglers)
	}
	if c := tr.totals(); c.BytesDown != bytesDown || c.BytesUp != bytesUp {
		t.Fatalf("totals %d/%d, want %d/%d", c.BytesDown, c.BytesUp, bytesDown, bytesUp)
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
// server_heavy_k64's shape: once a warm-up round has sized the encode
// buffers and the round-trip queue, DownAll plus an in-place UpAll of 64
// int8 payloads allocate nothing at Limit(1), and neither does a single
// in-place Up. At Limit(2) the only allocations are the fan-out's own, a
// fixed number per call: K = 8 and K = 64 allocate the same.
func TestTransportInt8ZeroAlloc(t *testing.T) {
	const n = 51_978
	rng := tensor.NewRNG(32)
	global, ref := testVec(rng, n), testVec(rng, n)
	round := func(k, workers int) (run func(), tr *Transport) {
		tr, err := NewTransport(TransportOptions{Codec: "int8"})
		if err != nil {
			t.Fatal(err)
		}
		clients := make([]int, k)
		sent, recv, params := make([]nn.ParamVector, k), make([]nn.ParamVector, k), make([]nn.ParamVector, k)
		for i := range clients {
			clients[i], sent[i], recv[i], params[i] = i, global, make(nn.ParamVector, n), ref.Clone()
		}
		tr.BeginRound(0, clients, nil)
		ok := make([]bool, k)
		return func() {
			tr.DownAll(recv, clients, sent, Limit(workers))
			tr.UpAll(params, ok, clients, params, recv, Limit(workers))
			for i := range ok {
				if !ok[i] {
					t.Fatal("upload lost on the fault-free wire")
				}
			}
		}, tr
	}
	run, tr := round(64, 1)
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Fatalf("int8 DownAll + in-place UpAll of 64 payloads at Limit(1) allocate %v objects per round, want 0", allocs)
	}
	params := ref.Clone()
	up := func() {
		if _, ok := tr.Up(params, 0, params, global); !ok {
			t.Fatal("upload lost on the fault-free wire")
		}
	}
	if allocs := testing.AllocsPerRun(10, up); allocs != 0 {
		t.Fatalf("int8 in-place Up allocates %v objects, want 0", allocs)
	}

	var perK [2]float64
	for j, k := range []int{8, 64} {
		run, _ := round(k, 2)
		run()
		perK[j] = testing.AllocsPerRun(5, run)
	}
	if perK[0] != perK[1] {
		t.Fatalf("at Limit(2) a round allocates %v objects at K=8 and %v at K=64: the fan-out allocates per payload", perK[0], perK[1])
	}
}

// TestTransportInt8HugeRange: a finite vector never panics the wire. A
// range whose width is finite but within an ulp of MaxFloat64 used to be
// encoded under a header whose grid top was +Inf, which the codec's own
// Decode refuses — and the wire panics on a refused undamaged round trip.
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
		down := []nn.ParamVector{nil}
		tr.DownAll(down, []int{0}, []nn.ParamVector{vec}, Limit(1))
		cast := tr.Broadcast(nil, []int{0}, vec)
		up, ok := tr.Up(make(nn.ParamVector, len(vec)), 0, vec, make(nn.ParamVector, len(vec)))
		if !ok {
			t.Fatalf("%v: upload lost on the fault-free wire", vec)
		}
		for _, got := range []nn.ParamVector{down[0], cast, up} {
			for i, v := range got {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%v: element %d crossed the wire as %v", vec, i, v)
				}
			}
		}
	}
}

// wireRun is everything one batch exchange decides: the client-visible
// dispatches, the server-visible uploads and verdicts, the round's
// counters, every link's clock and the quorum count.
type wireRun struct {
	down, up  []nn.ParamVector
	ok        []bool
	cur       counters
	elapsed   []float64
	uploaders int
}

// TestTransportBatchWorkerInvariance pins the batch wire's contract: the
// serial step decides every outcome, so DownAll and UpAll at Limit(1) and
// Limit(4) give bit-equal vectors, equal verdicts, counters, link clocks
// and quorum counts — for every lossy codec, under each fault kind (with
// a retry and a backoff), each upload-corrupting adversary, and
// uploads decoded in place or into their own destinations.
func TestTransportBatchWorkerInvariance(t *testing.T) {
	const k, n, population = 12, 333, 20
	rng := tensor.NewRNG(41)
	clients := make([]int, k)
	sent, trained := make([]nn.ParamVector, k), make([]nn.ParamVector, k)
	for i := range clients {
		clients[i] = 1 + i // client 0 never takes part
		sent[i] = testVec(rng, n)
		trained[i] = sent[i].Clone()
		for j := range trained[i] {
			trained[i][j] += 0.01 * rng.Normal(0, 1)
		}
	}
	mixes := []struct {
		name     string
		faults   FaultOptions
		deadline float64
		fired    func(c counters) bool
	}{
		{"truncate", FaultOptions{TruncateRate: 0.6}, 0, func(c counters) bool { return c.Retries > 0 && c.FaultDrops > 0 }},
		{"corrupt", FaultOptions{CorruptRate: 0.6}, 0, func(c counters) bool { return c.Retries > 0 && c.FaultDrops > 0 }},
		{"drop", FaultOptions{DropRate: 0.6}, 0, func(c counters) bool { return c.Retries > 0 && c.FaultDrops > 0 }},
		{"duplicate", FaultOptions{DuplicateRate: 0.5}, 0, func(c counters) bool { return c.Duplicates > 0 }},
		{"straggle", FaultOptions{StraggleRate: 0.5}, 0.25, func(c counters) bool { return c.Stragglers > 0 && c.Stragglers < k }},
	}
	exchange := func(codec string, faults FaultOptions, deadline float64, attack string, inPlace bool, workers int) wireRun {
		tr, err := NewTransport(TransportOptions{Codec: codec, Network: "lte", DeadlineSec: deadline, Retries: 1, RetryBackoffSec: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		tr.SetFaultPlan(NewFaultPlan(faults, 7))
		tr.SetAdversary(NewAdversary(AdversaryOptions{Attack: attack, Frac: 0.3}, population, tensor.NewRNG(5)))
		tr.BeginRound(3, clients, tensor.NewRNG(9))
		w := wireRun{down: make([]nn.ParamVector, k), up: make([]nn.ParamVector, k), ok: make([]bool, k)}
		for i := range w.down {
			w.down[i] = make(nn.ParamVector, n)
		}
		tr.DownAll(w.down, clients, sent, Limit(workers))
		params := make([]nn.ParamVector, k)
		for i := range params {
			params[i] = trained[i].Clone()
			if inPlace {
				w.up[i] = params[i]
			}
		}
		tr.UpAll(w.up, w.ok, clients, params, w.down, Limit(workers))
		w.cur, w.uploaders = tr.cur, tr.RoundUploaders()
		for _, ci := range clients {
			w.elapsed = append(w.elapsed, tr.links[ci].elapsed)
		}
		return w
	}
	sameBits := func(a, b nn.ParamVector) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for _, codec := range []string{"fp16", "int8", "topk:0.25"} {
		for _, mix := range mixes {
			for _, attack := range []string{AttackNone, AttackSignFlip, AttackCollude} {
				for _, inPlace := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/%s/inPlace=%v", codec, mix.name, attack, inPlace)
					serial := exchange(codec, mix.faults, mix.deadline, attack, inPlace, 1)
					fanned := exchange(codec, mix.faults, mix.deadline, attack, inPlace, 4)
					if !mix.fired(serial.cur) {
						t.Fatalf("%s: the fault never fired (counters %+v)", name, serial.cur)
					}
					for i := range clients {
						if !sameBits(serial.down[i], fanned.down[i]) {
							t.Fatalf("%s: dispatch %d differs between Limit(1) and Limit(4)", name, i)
						}
						if serial.ok[i] != fanned.ok[i] || !sameBits(serial.up[i], fanned.up[i]) {
							t.Fatalf("%s: upload %d differs between Limit(1) and Limit(4) (ok %v vs %v)", name, i, serial.ok[i], fanned.ok[i])
						}
						if math.Float64bits(serial.elapsed[i]) != math.Float64bits(fanned.elapsed[i]) {
							t.Fatalf("%s: client %d's link clock %v vs %v", name, clients[i], serial.elapsed[i], fanned.elapsed[i])
						}
					}
					if serial.cur != fanned.cur || serial.uploaders != fanned.uploaders {
						t.Fatalf("%s: counters %+v / %d uploaders at Limit(1), %+v / %d at Limit(4)", name, serial.cur, serial.uploaders, fanned.cur, fanned.uploaders)
					}
				}
			}
		}
	}
}

// refusingCodec puts int8's bytes on the wire and refuses every one of
// them on the way back: the codec bug a clean round trip must surface.
type refusingCodec struct{ nn.Int8Codec }

func (refusingCodec) Name() string { return "refuser" }

func (refusingCodec) DecodeDelta(nn.ParamVector, []byte, nn.ParamVector) (int, error) {
	return 0, errors.New("payload refused")
}

// TestTransportCleanRefusalPanics: an undamaged round trip the codec
// refuses is a codec bug, not a lost upload to retry — DownAll and UpAll
// panic with a message naming the codec, on the caller's goroutine, at
// every worker count.
func TestTransportCleanRefusalPanics(t *testing.T) {
	rng := tensor.NewRNG(33)
	clients := []int{0, 1, 2, 3, 4, 5, 6, 7}
	vecs := make([]nn.ParamVector, len(clients))
	for i := range vecs {
		vecs[i] = testVec(rng, 64)
	}
	for _, workers := range []int{1, 4} {
		for _, dir := range []string{"down", "up"} {
			func() {
				tr, err := NewTransport(TransportOptions{Codec: "int8", Retries: 3})
				if err != nil {
					t.Fatal(err)
				}
				tr.codec, tr.delta = refusingCodec{}, refusingCodec{}
				tr.BeginRound(0, clients, nil)
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, "refuser") {
						t.Fatalf("%s at Limit(%d): panic %q does not name the codec", dir, workers, msg)
					}
					if tr.cur.Retries != 0 || tr.cur.FaultDrops != 0 {
						t.Fatalf("%s at Limit(%d): a clean refusal was booked as a wire loss (%+v)", dir, workers, tr.cur)
					}
				}()
				out := make([]nn.ParamVector, len(clients))
				if dir == "down" {
					tr.DownAll(out, clients, vecs, Limit(workers))
				} else {
					tr.UpAll(out, make([]bool, len(clients)), clients, vecs, make([]nn.ParamVector, len(clients)), Limit(workers))
				}
				t.Fatalf("%s at Limit(%d): a refused clean round trip returned", dir, workers)
			}()
		}
	}
}
