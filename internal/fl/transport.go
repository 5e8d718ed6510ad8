package fl

import (
	"fmt"
	"math"

	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// TransportOptions selects the simulated wire a run's payloads travel
// over. The zero value — identity codec, ideal network, no deadline — is
// the reference wire: payloads pass through untouched (and uncopied), so
// histories are bit-identical to the accounting-only engine, with byte
// counters riding along for free.
type TransportOptions struct {
	// Codec names the model codec: "identity" (default), "fp16", "int8",
	// "topk" or "topk:<frac>". See nn.CodecByName.
	Codec string
	// Network names the link model: "none" (default), "fiber", "wifi",
	// "lte" or "edge". See NetworkByName.
	Network string
	// DeadlineSec is the per-round wall-clock budget per client: a client
	// whose simulated download+upload time exceeds it becomes a straggler
	// (its uploads never reach the server). 0 disables the deadline.
	DeadlineSec float64
	// Retries is how many extra upload attempts a client makes after a
	// fault-injected loss (drop/truncate/corrupt) before the server gives
	// up on it; 0 means a single attempt. Retries only matter under an
	// active FaultPlan — the fault-free wire never loses a payload.
	Retries int
	// RetryBackoffSec is the base of the deterministic exponential
	// backoff charged to the client's link clock before retry attempt a:
	// RetryBackoffSec·2^(a-1) seconds. 0 retries immediately.
	RetryBackoffSec float64
}

// Validate reports the first problem with the options.
func (o TransportOptions) Validate() error {
	if _, err := nn.CodecByName(o.Codec); err != nil {
		return err
	}
	if _, err := NetworkByName(o.Network); err != nil {
		return err
	}
	if !(o.DeadlineSec >= 0) {
		return fmt.Errorf("fl: DeadlineSec = %v, must be non-negative", o.DeadlineSec)
	}
	if o.Retries < 0 {
		return fmt.Errorf("fl: Retries = %d, must be non-negative", o.Retries)
	}
	if !(o.RetryBackoffSec >= 0) {
		return fmt.Errorf("fl: RetryBackoffSec = %v, must be non-negative", o.RetryBackoffSec)
	}
	return nil
}

// NetworkModel describes simulated per-client link conditions. Rates and
// latency are medians; each activated client draws lognormal multipliers
// exp(Jitter·N(0,1)) per round, so a fleet on the same model still has
// fast and slow members.
type NetworkModel struct {
	// Name labels the model in reports.
	Name string
	// DownMbps / UpMbps are median link rates in megabits per second;
	// 0 means infinite (no transfer time).
	DownMbps, UpMbps float64
	// LatencySec is the median one-way message latency.
	LatencySec float64
	// Jitter is the σ of the lognormal multiplier; 0 makes every client
	// identical.
	Jitter float64
}

// Ideal reports whether the model charges no time at all.
func (m NetworkModel) Ideal() bool {
	return m.DownMbps == 0 && m.UpMbps == 0 && m.LatencySec == 0
}

// NetworkByName resolves a link model from its flag spelling.
func NetworkByName(name string) (NetworkModel, error) {
	switch name {
	case "", "none":
		return NetworkModel{Name: "none"}, nil
	case "fiber":
		return NetworkModel{Name: "fiber", DownMbps: 300, UpMbps: 100, LatencySec: 0.005, Jitter: 0.1}, nil
	case "wifi":
		return NetworkModel{Name: "wifi", DownMbps: 80, UpMbps: 30, LatencySec: 0.010, Jitter: 0.3}, nil
	case "lte":
		return NetworkModel{Name: "lte", DownMbps: 30, UpMbps: 10, LatencySec: 0.050, Jitter: 0.5}, nil
	case "edge":
		return NetworkModel{Name: "edge", DownMbps: 2, UpMbps: 0.5, LatencySec: 0.200, Jitter: 0.8}, nil
	}
	return NetworkModel{}, fmt.Errorf("fl: unknown network %q (want none, fiber, wifi, lte or edge)", name)
}

// link is one activated client's drawn conditions and round clock.
type link struct {
	downRate, upRate float64 // bytes per second; 0 = infinite
	latency          float64 // seconds per message
	elapsed          float64 // simulated wire time consumed this round
	straggler        bool
	failed           bool // fault-injected permanent loss (retries exhausted)
	okUps            int  // uploads the server accepted this round
}

// Transport is the simulated exchange path every algorithm routes its
// down/up payloads through. It serializes payloads with the configured
// codec, charges byte-accurate traffic, advances per-client link clocks
// drawn from the network model, and reports deadline-missed uploads as
// stragglers.
//
// Concurrency contract: all Transport methods must be called from the
// serial phases of a round (job preparation and reduce) — exactly where
// algorithms draw their RNG splits today. Link conditions are drawn in
// slot order from a pre-split per-round stream, so results are
// bit-identical at every Parallelism setting. A batch call (DownAll,
// UpAll) splits its exchange in two: a serial step decides every outcome
// in call order — bytes, link clocks, deadline, adversary corruption,
// retries and fault fates — and a fan-out step then runs the undamaged
// payloads' codec round trips, each a pure function of (vector,
// reference), across the caller's workers and joins before returning.
//
// A nil *Transport is valid and behaves as a zero-cost pass-through, so
// algorithms run unchanged outside fl.Run (unit tests driving Init/Round
// directly).
type Transport struct {
	codec nn.Codec
	// delta is codec's delta form, nil exactly when the codec is lossless
	// (NewTransport refuses a lossy codec without one).
	delta    nn.DeltaCodec
	net      NetworkModel
	deadline float64

	// links is this round's link table, one slab reused across rounds:
	// BeginRound writes the activated clients' links into it and a first
	// touch outside BeginRound appends, so a round allocates no link.
	// linkIdx maps a client to its index. A *link into the slab is only
	// held until the next append (touch), which may move the slab.
	links   []link
	linkIdx map[int]int

	// adv, when non-nil, corrupts compromised clients' uploads before
	// they are encoded (see Adversary). Set by the runner.
	adv *Adversary

	// faults, when non-nil, is the run's deterministic fault schedule
	// (see FaultPlan). Set by the runner; round tracks the 0-based round
	// index BeginRound was last given, so fault decisions key off it.
	faults *FaultPlan
	round  int
	// stall is the server-side latency every link starts this round with
	// (a stall fault); retries/retryBackoff mirror TransportOptions.
	stall        float64
	retries      int
	retryBackoff float64

	// cur counts this round's wire events; EndRound folds it into cum.
	cur, cum counters

	// encBufs[wk] is worker wk's recycled encode scratch — the wire bytes
	// of the payload it has in flight. The serial step (a damaged
	// attempt) uses encBufs[0], which no fan-out is running on then.
	encBufs [][]byte
	// pending holds the undamaged round trips the serial step queued;
	// flush runs them and empties it. runPending is flush's body, bound
	// once so that a flush allocates no closure.
	pending    []roundTrip
	runPending func(wk, i int) error
}

// roundTrip is one queued undamaged payload: vec encoded against ref and
// decoded into dst.
type roundTrip struct{ dst, vec, ref nn.ParamVector }

// NewTransport builds a transport from options. The zero options value
// yields the pass-through reference wire.
func NewTransport(opts TransportOptions) (*Transport, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	codec, _ := nn.CodecByName(opts.Codec)
	net, _ := NetworkByName(opts.Network)
	var delta nn.DeltaCodec
	if !codec.Lossless() {
		var ok bool
		if delta, ok = codec.(nn.DeltaCodec); !ok {
			return nil, fmt.Errorf("fl: lossy codec %q is not an nn.DeltaCodec", codec.Name())
		}
	}
	t := &Transport{
		codec:        codec,
		delta:        delta,
		net:          net,
		deadline:     opts.DeadlineSec,
		retries:      opts.Retries,
		retryBackoff: opts.RetryBackoffSec,
		linkIdx:      map[int]int{},
		encBufs:      make([][]byte, 1),
	}
	t.runPending = func(wk, i int) error {
		p := &t.pending[i]
		return t.deliver(wk, p.dst, p.vec, p.ref, mangleNone)
	}
	return t, nil
}

// PassThrough reports whether payloads cross the wire unmodified (the
// codec is lossless), in which case every exchange returns the input
// vector itself and never touch a destination buffer.
func (t *Transport) PassThrough() bool { return t == nil || t.codec.Lossless() }

// SetAdversary installs the run's Byzantine adversary (nil for benign
// runs). Nil-safe on both sides.
func (t *Transport) SetAdversary(a *Adversary) {
	if t != nil {
		t.adv = a
	}
}

// SetFaultPlan installs the run's deterministic fault schedule (nil for
// fault-free runs). Nil-safe on both sides.
func (t *Transport) SetFaultPlan(p *FaultPlan) {
	if t != nil {
		t.faults = p
	}
}

// BeginRound resets the round counters and draws round r's link
// conditions for every activated client (dropped slots, marked -1, are
// skipped) in slot order from rng — which the runner pre-splits serially,
// keeping the draws independent of scheduling. rng may be nil when the
// network model is ideal. Fault-injected straggle (slowed link) and stall
// (server-side latency on every link) conditions apply here, after the
// jitter draws, so an inactive plan leaves the stream untouched.
func (t *Transport) BeginRound(r int, selected []int, rng *tensor.RNG) {
	if t == nil {
		return
	}
	t.round = r
	t.cur = counters{}
	t.stall = 0
	if t.faults.Stalls(r) {
		t.stall = t.faults.StallSec()
		t.cur.Stalls++
	}
	t.adv.BeginRound()
	clear(t.linkIdx)
	t.links = t.links[:0]
	for _, ci := range selected {
		if ci < 0 {
			continue
		}
		*t.touch(ci) = t.newLink(ci, rng)
	}
}

// link returns the client's link this round, or nil before a first touch.
func (t *Transport) link(client int) *link {
	if i, ok := t.linkIdx[client]; ok {
		return &t.links[i]
	}
	return nil
}

// touch returns the client's link, appending a zero one on a first
// touch. The pointer is valid until the next touch.
func (t *Transport) touch(client int) *link {
	if l := t.link(client); l != nil {
		return l
	}
	t.linkIdx[client] = len(t.links)
	t.links = append(t.links, link{})
	return &t.links[len(t.links)-1]
}

// drawLink draws one activation's link conditions: the model's medians,
// each scaled by its own lognormal multiplier exp(Jitter·N(0,1)), drawn
// in the fixed order down, up, latency. Rates are bytes per second (0 =
// infinite). A nil rng or a jitter-free model draws nothing.
func (m NetworkModel) drawLink(rng *tensor.RNG) (down, up, latency float64) {
	down, up, latency = mbpsToBytesPerSec(m.DownMbps), mbpsToBytesPerSec(m.UpMbps), m.LatencySec
	if m.Jitter > 0 && rng != nil {
		down *= math.Exp(m.Jitter * rng.Normal(0, 1))
		up *= math.Exp(m.Jitter * rng.Normal(0, 1))
		latency *= math.Exp(m.Jitter * rng.Normal(0, 1))
	}
	return down, up, latency
}

// newLink draws a client's link for this round and layers the round's
// straggle and stall faults onto it.
func (t *Transport) newLink(client int, rng *tensor.RNG) link {
	var l link
	l.downRate, l.upRate, l.latency = t.net.drawLink(rng)
	if t.faults.Straggles(t.round, client) {
		f := t.faults.StraggleFactor()
		l.downRate /= f
		l.upRate /= f
		l.latency *= f
	}
	l.elapsed += t.stall
	return l
}

func mbpsToBytesPerSec(mbps float64) float64 { return mbps * 1e6 / 8 }

// EndRound folds the round counters into the run totals and returns the
// round's traffic and straggler count.
func (t *Transport) EndRound() (bytesDown, bytesUp int64, stragglers int) {
	if t == nil {
		return 0, 0, 0
	}
	t.cum.add(t.cur)
	return t.cur.BytesDown, t.cur.BytesUp, t.cur.Stragglers
}

// totals returns the cumulative wire counters of every ended round:
// traffic, stragglers, and the fault telemetry (retry attempts, clients
// permanently lost to faults, duplicate deliveries, stalled rounds).
func (t *Transport) totals() counters {
	if t == nil {
		return counters{}
	}
	return t.cum
}

// RoundUploaders counts the clients whose uploads the server has accepted
// this round — the quorum the engines compare against Config.MinUploads
// before deciding whether the round aggregates or degrades.
func (t *Transport) RoundUploaders() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, l := range t.links {
		if l.okUps > 0 && !l.failed && !l.straggler {
			n++
		}
	}
	return n
}

// DownAll simulates the server→client dispatch of vecs[i] to clients[i]
// for every i: each payload is charged to its client's downlink in call
// order, then every payload's encode → decode round trip runs across w.
// out[i] holds the destination on entry (nil means allocate at the
// payload's length) and the client-visible (decoded) vector on return —
// vecs[i] itself on the lossless pass-through, which never fans out.
// Destinations must be distinct, and none may overlap another index's
// payload.
func (t *Transport) DownAll(out []nn.ParamVector, clients []int, vecs []nn.ParamVector, w Workers) {
	if t == nil {
		copy(out, vecs)
		return
	}
	for i, ci := range clients {
		size := t.codec.EncodedSize(len(vecs[i]))
		t.cur.BytesDown += size
		t.chargeTime(ci, size, true)
		out[i] = t.enqueue(out[i], vecs[i], nil)
	}
	t.flush(w)
}

// Broadcast simulates dispatching one payload to every listed client
// (dropped -1 slots are skipped): bytes and link time are charged per
// client, but the payload is encoded and decoded once — every client
// sees the same decoded vector, exactly as a deterministic codec behaves.
func (t *Transport) Broadcast(dst nn.ParamVector, clients []int, vec nn.ParamVector) nn.ParamVector {
	if t == nil {
		return vec
	}
	size := t.codec.EncodedSize(len(vec))
	for _, ci := range clients {
		if ci < 0 {
			continue
		}
		t.cur.BytesDown += size
		t.chargeTime(ci, size, true)
	}
	out := t.enqueue(dst, vec, nil)
	t.flush(Limit(1))
	return out
}

// UpAll simulates the client→server upload of vecs[i] from clients[i] for
// every i, delta-encoded against refs[i] when it is non-nil (both
// endpoints must hold a reference bit-identically — see the invalidation
// rule in docs/ARCHITECTURE.md). out[i] holds the destination on entry
// (it may be vecs[i] itself: uploads decode in place) and the
// server-visible vector on return — vecs[i] itself on the lossless
// pass-through. ok[i] is false when the upload never reached the
// server: the client's round clock passed the deadline (the upload was
// transmitted and its bytes charged, but the server stopped waiting) or
// every attempt was lost to faults. The caller must treat such a client
// like a crashed one; its later uploads are skipped entirely.
//
// Every outcome is decided serially in call order, exactly as that many
// Up calls would; then the accepted undamaged round trips run across w.
// Destinations must be distinct, and none may overlap another index's
// payload or any reference.
func (t *Transport) UpAll(out []nn.ParamVector, ok []bool, clients []int, vecs, refs []nn.ParamVector, w Workers) {
	if t == nil {
		copy(out, vecs)
		for i := range clients {
			ok[i] = true
		}
		return
	}
	for i, ci := range clients {
		out[i], ok[i] = t.upOne(out[i], ci, vecs[i], refs[i])
	}
	t.flush(w)
}

// Up is UpAll of one upload: it returns the server-visible vector and
// whether the server accepted it. SCAFFOLD uploads its variate only after
// its model upload's verdict, so it calls this per payload.
func (t *Transport) Up(dst nn.ParamVector, client int, vec, ref nn.ParamVector) (nn.ParamVector, bool) {
	out, ok := [1]nn.ParamVector{dst}, [1]bool{}
	t.UpAll(out[:], ok[:], []int{client}, []nn.ParamVector{vec}, []nn.ParamVector{ref}, Limit(1))
	return out[0], ok[0]
}

// upOne is one upload's serial step: it decides the upload's fate and
// returns the vector the server will hold, queueing the round trip when
// the accepted attempt was undamaged.
func (t *Transport) upOne(dst nn.ParamVector, client int, vec, ref nn.ParamVector) (nn.ParamVector, bool) {
	if l := t.link(client); l != nil && (l.straggler || l.failed) {
		return vec, false
	}
	// A compromised client transmits its corrupted payload; the server
	// only ever sees the wire-visible vector, so every algorithm (and
	// every codec) is attacked uniformly at this one seam.
	vec = t.adv.CorruptUpload(client, vec)
	size := t.codec.EncodedSize(len(vec))
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			t.backoff(client, attempt)
			t.cur.Retries++
		}
		t.cur.BytesUp += size
		if !t.chargeTime(client, size, false) {
			t.markStraggler(client)
			return vec, false
		}
		// Wire losses: an outright drop, or a payload the decode rejects
		// (truncated body, flipped header). Each is a pure per-attempt
		// hash, so a retry redraws its fate.
		lost := t.faults.Drops(t.round, client, attempt)
		mangle := mangleNone
		if !lost {
			switch {
			case t.faults.Truncates(t.round, client, attempt):
				mangle = mangleTruncate
			case t.faults.Corrupts(t.round, client, attempt):
				mangle = mangleCorrupt
			}
			// The lossless pass-through never materializes wire bytes to
			// mangle; a truncated/corrupted payload is simply lost.
			if mangle != mangleNone && t.codec.Lossless() {
				lost = true
			}
		}
		switch {
		case lost:
		case mangle == mangleNone:
			out := t.enqueue(dst, vec, ref)
			t.accept(client, size)
			return out, true
		default:
			// A damaged attempt runs its real round trip now, and the
			// decoder's verdict decides its fate. A refusal leaves dst
			// bit-unchanged, so a retry re-encodes the same vector.
			dst = t.dest(dst, len(vec))
			if t.deliver(0, dst, vec, ref, mangle) == nil {
				t.accept(client, size)
				return dst, true
			}
		}
		if attempt >= t.retries {
			t.markFailed(client)
			return vec, false
		}
	}
}

// accept books an upload the server took: a duplicate delivery's bytes
// and wire time (the server dedups the payload itself), and the client's
// quorum count.
func (t *Transport) accept(client int, size int64) {
	if t.faults.Duplicates(t.round, client) {
		t.cur.BytesUp += size
		t.chargeTime(client, size, false)
		t.cur.Duplicates++
	}
	if l := t.link(client); l != nil {
		l.okUps++
	}
}

// backoff charges the deterministic exponential retry backoff to the
// client's link clock before attempt a (a ≥ 1).
func (t *Transport) backoff(client, attempt int) {
	if t.retryBackoff == 0 {
		return
	}
	if l := t.link(client); l != nil {
		l.elapsed += t.retryBackoff * math.Pow(2, float64(attempt-1))
	}
}

// markStraggler flags the client's link and counts it once.
func (t *Transport) markStraggler(client int) {
	if l := t.touch(client); !l.straggler {
		l.straggler = true
		t.cur.Stragglers++
	}
}

// markFailed flags a client whose upload was permanently lost to faults
// (every attempt dropped or rejected) and counts it once. The caller
// treats it like a crashed client; subsequent uploads are skipped.
func (t *Transport) markFailed(client int) {
	if l := t.touch(client); !l.failed {
		l.failed = true
		t.cur.FaultDrops++
	}
}

// chargeTime advances the client's round clock by one message (latency
// plus transfer) and reports whether the clock is still inside the
// deadline. Unknown clients (algorithms exchanging outside BeginRound)
// get an un-jittered link on first touch.
func (t *Transport) chargeTime(client int, size int64, down bool) bool {
	if t.net.Ideal() && t.deadline == 0 {
		return true
	}
	l := t.link(client)
	if l == nil {
		l = t.touch(client)
		*l = t.newLink(client, nil)
	}
	rate := l.upRate
	if down {
		rate = l.downRate
	}
	l.elapsed += l.latency
	if rate > 0 {
		l.elapsed += float64(size) / rate
	}
	return t.deadline == 0 || l.elapsed <= t.deadline
}

// mangle selects the wire damage deliver inflicts on the encoded payload
// before the receiver decodes it.
type mangle int

const (
	mangleNone     mangle = iota
	mangleTruncate        // cut the encoded body short
	mangleCorrupt         // flip the element-count header's bits
)

// dest returns the decode destination for an n-element payload: dst, or
// a new vector when dst is nil.
func (t *Transport) dest(dst nn.ParamVector, n int) nn.ParamVector {
	if dst == nil {
		return make(nn.ParamVector, n)
	}
	if len(dst) != n {
		panic(fmt.Sprintf("fl: transport destination length %d != payload %d", len(dst), n))
	}
	return dst
}

// enqueue queues an undamaged round trip of vec (against ref) into dst
// for the next flush and returns the vector the receiver will hold. The
// identity wire is a zero-copy pass-through: it returns vec and queues
// nothing, because a delta would only add float cancellation error to a
// codec that is already exact.
func (t *Transport) enqueue(dst, vec, ref nn.ParamVector) nn.ParamVector {
	if t.delta == nil {
		return vec
	}
	dst = t.dest(dst, len(vec))
	t.pending = append(t.pending, roundTrip{dst: dst, vec: vec, ref: ref})
	return dst
}

// flush runs every queued round trip across w — worker wk encoding into
// encBufs[wk] — and joins. Encode and decode are the same codec over the
// same undamaged bytes, so a refusal is a codec bug, not an input
// condition: flush panics naming the codec, on the caller's goroutine.
func (t *Transport) flush(w Workers) {
	n := len(t.pending)
	if n == 0 {
		return
	}
	if k := effectiveWorkers(n, w.Max); len(t.encBufs) < k {
		t.encBufs = append(t.encBufs, make([][]byte, k-len(t.encBufs))...)
	}
	err := parallelForErr(n, w, nil, t.runPending)
	clear(t.pending)
	t.pending = t.pending[:0]
	if err != nil {
		panic(err)
	}
}

// deliver runs vec through the codec into dst on worker wk's encode
// buffer. The delta reference, when set, is the codec's own argument
// (nn.DeltaCodec): the residual vec−ref is what crosses the wire and the
// receiver adds ref back — so coordinates a lossy codec drops stay at the
// reference value instead of snapping to zero, and quantization grids
// span the (much smaller) residual range — but neither a residual vector
// nor a second pass exists here; the wire bytes in the encode buffer are
// all that materialises between the encode and the decode. dst may be
// vec itself (every upload is decoded in place); it must not overlap ref.
//
// A non-zero mangle damages the encoded bytes in transit; the decode then
// rejects the payload with an error, which the caller treats as a lost
// attempt. Decode failures never panic: a hostile or damaged payload
// surfaces as a per-client loss, exactly like a dropped one. A rejected
// payload leaves dst bit-unchanged (the codecs validate before their
// first write), which is what lets an in-place upload retry.
func (t *Transport) deliver(wk int, dst, vec, ref nn.ParamVector, m mangle) error {
	buf := t.delta.EncodeDelta(t.encBufs[wk][:0], vec, ref)
	switch m {
	case mangleTruncate:
		buf = buf[:len(buf)/2]
	case mangleCorrupt:
		// Flipping the 4-byte element-count header is a bijection, so the
		// decoded count never matches the destination: rejection is
		// guaranteed, unlike flipping body bytes a quantizer might accept.
		for i := 0; i < len(buf) && i < 4; i++ {
			buf[i] ^= 0xFF
		}
	}
	t.encBufs[wk] = buf
	if _, err := t.delta.DecodeDelta(dst, buf, ref); err != nil {
		return fmt.Errorf("fl: %s codec round trip: %w", t.codec.Name(), err)
	}
	return nil
}

// TransportUser is implemented by algorithms that route their exchanges
// through the simulated transport. The runner injects its transport
// before Init; algorithms must tolerate never receiving one (nil
// transport methods are pass-through no-ops).
type TransportUser interface {
	SetTransport(t *Transport)
}

// Wire is the embeddable TransportUser implementation algorithms use.
type Wire struct {
	tr *Transport
}

// SetTransport implements TransportUser.
func (w *Wire) SetTransport(t *Transport) { w.tr = t }

// Transport returns the injected transport (nil when running outside
// fl.Run, which every Transport method tolerates).
func (w *Wire) Transport() *Transport { return w.tr }
