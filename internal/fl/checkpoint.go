package fl

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// CheckpointOptions configures round-granular crash recovery: after a
// round completes, the engine can snapshot everything the run's future
// depends on — model and per-algorithm state, the exact positions of
// every RNG stream, the metric history, cumulative wire telemetry — so a
// killed process resumes at the next round boundary and finishes with a
// final history byte-identical to the uninterrupted run. Snapshots are
// write-ahead: serialized to a temp file and renamed into place, so a
// crash mid-write leaves the previous snapshot intact. The shard cache is
// deliberately absent from the format — shards are pure functions of
// (seed, id), so a resumed run re-synthesizes what it needs.
type CheckpointOptions struct {
	// Path is the snapshot file. Required when any other field is set.
	Path string
	// Every writes a snapshot after every n completed rounds; 0 writes
	// none on a schedule (StopAfterRound may still write one).
	Every int
	// Resume loads Path before the first round and continues from the
	// recorded round instead of round 0. The file must exist and match
	// the run's seed, algorithm, and shape.
	Resume bool
	// StopAfterRound, when positive, halts the run after that (1-based)
	// round completes, writing a snapshot regardless of Every and
	// returning the partial history alongside ErrStopped — the
	// kill-at-a-round-boundary simulation used by the resume tests.
	StopAfterRound int
}

// Active reports whether the run touches a checkpoint file at all.
func (o CheckpointOptions) Active() bool { return o.Path != "" }

// Validate reports the first problem with the options.
func (o CheckpointOptions) Validate() error {
	switch {
	case o.Every < 0:
		return fmt.Errorf("fl: Checkpoint.Every = %d, must be non-negative", o.Every)
	case o.StopAfterRound < 0:
		return fmt.Errorf("fl: Checkpoint.StopAfterRound = %d, must be non-negative", o.StopAfterRound)
	case o.Path == "" && (o.Every > 0 || o.Resume || o.StopAfterRound > 0):
		return fmt.Errorf("fl: Checkpoint.Path required when checkpointing is enabled")
	}
	return nil
}

// ErrStopped is returned (with the partial history) when a run halts at
// CheckpointOptions.StopAfterRound. It is a clean stop, not a failure.
var ErrStopped = errors.New("fl: run stopped at requested checkpoint round")

// RoundCheckpointer is implemented by algorithms that can snapshot and
// restore their full round-to-round state — models, control variates,
// optimizer buffers, and the position of the RNG stream Init handed them.
// All six built-in algorithms implement it; Run returns a clear error if
// checkpointing is requested for an algorithm that does not.
type RoundCheckpointer interface {
	// SaveState writes the algorithm's complete inter-round state.
	SaveState(w io.Writer) error
	// LoadState restores state written by SaveState, overwriting
	// whatever Init produced.
	LoadState(r io.Reader) error
}

const (
	runCkptMagic   = 0x4352_4C46 // "FLRC" little-endian
	asyncCkptMagic = 0x4341_4C46 // "FLAC" little-endian
	// ckptVersion 2 is the shared container: one header, body and metric
	// list under both magics, then the engine's tail.
	ckptVersion    = 2
	maxCkptBlob    = 1 << 31
	maxCkptMetrics = 1 << 22
	// maxCkptJobs caps the persisted in-flight set (InFlight is
	// user-bounded well below this; the cap is load hardening).
	maxCkptJobs = 1 << 20
	// metricBytes and minJobBytes are the smallest serialized metric and
	// in-flight job: a declared count must fit the bytes actually present
	// before anything is allocated for it.
	metricBytes = 14 * 8
	minJobBytes = 8 * 8
)

// ckptSpec is what a run expects of its snapshot's header: the engine's
// magic, the seed, the algorithm label, the run's shape and its length in
// rounds or commits.
type ckptSpec struct {
	magic uint64
	seed  int64
	label string
	shape []int
	total int
}

// runCkptSpec describes fl.Run's snapshots: shape (rounds, K, n).
func runCkptSpec(cfg Config, algorithm string, n int) ckptSpec {
	return ckptSpec{magic: runCkptMagic, seed: cfg.Seed, label: algorithm, total: cfg.Rounds,
		shape: []int{cfg.Rounds, cfg.ClientsPerRound, n}}
}

// asyncCkptSpec describes fl.RunAsync's snapshots under resolved options:
// shape (commits, buffer, in-flight, n, parameter count).
func asyncCkptSpec(cfg Config, opts AsyncOptions, n, dim int) ckptSpec {
	return ckptSpec{magic: asyncCkptMagic, seed: cfg.Seed, label: asyncAlgorithm, total: opts.Commits,
		shape: []int{opts.Commits, opts.Buffer, opts.InFlight, n, dim}}
}

// snapshot is the engine-independent body of a checkpoint: how far the
// run got, its counters, the positions of the three streams still being
// drawn from (select, engineA, engineB) and the metrics recorded so far.
type snapshot struct {
	done    int
	cum     counters
	streams [3]tensor.RNGState
	metrics []RoundMetric
}

// enc builds a snapshot in memory. Writing to the buffer cannot fail;
// what can is a cap (an oversized vector, slice or string), and the first
// such error sticks.
type enc struct {
	buf bytes.Buffer
	err error
}

func (e *enc) u64(vs ...uint64) {
	for _, v := range vs {
		if e.err == nil {
			e.err = nn.WriteU64(&e.buf, v)
		}
	}
}

func (e *enc) i64(vs ...int64) {
	for _, v := range vs {
		e.u64(uint64(v))
	}
}

func (e *enc) int(vs ...int) {
	for _, v := range vs {
		e.u64(uint64(v))
	}
}

func (e *enc) f64(vs ...float64) {
	for _, v := range vs {
		e.u64(math.Float64bits(v))
	}
}

func (e *enc) ints(xs []int) {
	if e.err == nil {
		e.err = nn.WriteIntSlice(&e.buf, xs)
	}
}

func (e *enc) vector(v nn.ParamVector) {
	if e.err == nil {
		e.err = nn.WriteVector(&e.buf, v)
	}
}

func (e *enc) counters(c counters) {
	e.i64(c.BytesDown, c.BytesUp)
	e.int(c.Stragglers, c.Retries, c.FaultDrops, c.Duplicates, c.Stalls, c.Crashes, c.Unavailable, c.Degraded)
}

// dec reads a snapshot held whole in memory, so every declared count can
// be checked against the bytes left. The first failure sticks, labelled
// with the section being read; later reads return zeros.
type dec struct {
	r    *bytes.Reader
	what string
	err  error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(d.what+": "+format, args...)
	}
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := nn.ReadU64(d.r)
	if err != nil {
		d.fail("truncated: %w", err)
	}
	return v
}

func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) int() int     { return int(d.i64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads a record count and bounds it twice before the caller
// allocates for it: by its cap, and by how many records of at least
// recordBytes the remaining bytes could hold.
func (d *dec) count(limit uint64, recordBytes int) int {
	n := d.u64()
	if n > limit {
		d.fail("count %d exceeds cap %d", n, limit)
	} else if n > uint64(d.r.Len()/recordBytes) {
		d.fail("count %d exceeds the %d bytes left", n, d.r.Len())
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// ids reads a length-prefixed list of at most limit client ids, each in
// [lo, n).
func (d *dec) ids(limit, lo, n int) []int {
	xs := make([]int, d.count(uint64(limit), 8))
	for i := range xs {
		if xs[i] = d.int(); xs[i] < lo || xs[i] >= n {
			d.fail("client id %d outside [%d,%d)", xs[i], lo, n)
		}
	}
	return xs
}

// vector reads a parameter vector of exactly dim entries (or none at all
// when optional).
func (d *dec) vector(dim int, optional bool) nn.ParamVector {
	if d.err != nil {
		return nil
	}
	v, err := nn.ReadVector(d.r)
	if err != nil {
		d.fail("%w", err)
	} else if len(v) != dim && !(optional && v == nil) {
		d.fail("vector has %d params, want %d", len(v), dim)
	}
	return v
}

func (d *dec) counters() counters {
	return counters{
		BytesDown: d.i64(), BytesUp: d.i64(),
		Stragglers: d.int(), Retries: d.int(), FaultDrops: d.int(), Duplicates: d.int(),
		Stalls: d.int(), Crashes: d.int(), Unavailable: d.int(), Degraded: d.int(),
	}
}

// encodeCheckpoint serializes the container: header, shared body, then
// whatever the engine's tail appends.
func encodeCheckpoint(spec ckptSpec, snap *snapshot, tail func(*enc)) ([]byte, error) {
	e := &enc{}
	e.u64(spec.magic, ckptVersion)
	e.i64(spec.seed)
	if e.err == nil {
		e.err = nn.WriteString(&e.buf, spec.label)
	}
	e.int(spec.shape...)
	e.int(snap.done)
	e.counters(snap.cum)
	for _, st := range snap.streams {
		e.i64(st.Seed)
		e.u64(st.Pos)
	}
	if len(snap.metrics) > maxCkptMetrics {
		return nil, fmt.Errorf("fl: checkpoint: %d metrics exceeds cap", len(snap.metrics))
	}
	e.int(len(snap.metrics))
	for _, m := range snap.metrics {
		e.int(m.Round)
		e.f64(m.TestAcc, m.TestLoss, m.CumModelEquivalents)
		e.counters(metricCounters(m))
	}
	tail(e)
	return e.buf.Bytes(), e.err
}

// parseCheckpoint reads and validates the container against the resuming
// run, returning the shared body and the reader positioned at the
// engine's tail. Every length is capped and checked against the bytes
// present, and every header field cross-checked, so a hostile or stale
// file fails with a clear error and never sizes an allocation.
func parseCheckpoint(data []byte, spec ckptSpec) (*snapshot, *dec, error) {
	d := &dec{r: bytes.NewReader(data), what: "header"}
	for _, h := range []struct {
		what string
		want uint64
	}{{"magic", spec.magic}, {"version", ckptVersion}} {
		if got := d.u64(); got != h.want {
			d.fail("bad %s %#x (want %#x)", h.what, got, h.want)
		}
	}
	if seed := d.i64(); seed != spec.seed {
		d.fail("checkpoint seed %d != run seed %d", seed, spec.seed)
	}
	if d.err == nil {
		label, err := nn.ReadString(d.r)
		if err != nil {
			d.fail("algorithm: %w", err)
		} else if label != spec.label {
			d.fail("checkpoint algorithm %q != run algorithm %q", label, spec.label)
		}
	}
	shape := make([]int, len(spec.shape))
	for i := range shape {
		shape[i] = d.int()
	}
	if !slices.Equal(shape, spec.shape) {
		d.fail("checkpoint shape %v != run %v", shape, spec.shape)
	}
	d.what = "body"
	snap := &snapshot{done: d.int()}
	if snap.done < 0 || snap.done > spec.total {
		d.fail("%d rounds done, outside [0,%d]", snap.done, spec.total)
	}
	snap.cum = d.counters()
	for i := range snap.streams {
		snap.streams[i] = tensor.RNGState{Seed: d.i64(), Pos: d.u64()}
	}
	d.what = "metrics"
	snap.metrics = make([]RoundMetric, d.count(maxCkptMetrics, metricBytes))
	for i := range snap.metrics {
		round, acc, loss, modelEq := d.int(), d.f64(), d.f64(), d.f64()
		snap.metrics[i] = d.counters().metric(round, acc, loss, modelEq)
	}
	d.what = "tail"
	return snap, d, d.err
}

// atomicWriteFile serializes the snapshot write-ahead: the bytes land in
// a temp file in the destination directory, then rename into place, so a
// crash at any instant leaves either the old snapshot or the new one —
// never a torn file.
func atomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// encodeRunTail appends what only the sync engine carries: the planner's
// cursor and the cohorts it drew past the boundary (they left the
// selection stream before the snapshot position, so they must travel with
// it), the accountant, and the algorithm's own state.
func encodeRunTail(e *enc, done int, planner *cohortPlanner, acct Accountant, algo Algorithm) {
	e.int(planner.next)
	for r := done; r < planner.next; r++ {
		e.ints(planner.drawn[r])
	}
	t := acct.total
	e.int(acct.rounds, t.ModelsDown, t.ModelsUp, t.VarsDown, t.VarsUp, t.GeneratorsDown)
	var blob bytes.Buffer
	if e.err == nil {
		e.err = algo.(RoundCheckpointer).SaveState(&blob)
	}
	if e.err == nil && blob.Len() > maxCkptBlob {
		e.err = fmt.Errorf("fl: checkpoint %s state %d bytes exceeds cap", algo.Name(), blob.Len())
	}
	e.int(blob.Len())
	e.buf.Write(blob.Bytes())
}

// runTail is encodeRunTail's bytes read back; the algorithm blob is
// returned, not interpreted.
type runTail struct {
	next  int
	drawn map[int][]int
	acct  Accountant
	blob  []byte
}

// parseRunTail reads the sync tail for a run of the given shape, done
// rounds in: the planner may be ahead of the loop but not past the run,
// and holds exactly one k-slot cohort of ids in [-1, n) for every round
// in between.
func parseRunTail(d *dec, done, rounds, n, k int) (*runTail, error) {
	d.what = "planner"
	t := &runTail{next: d.int(), drawn: map[int][]int{}}
	if t.next < done || t.next > rounds {
		d.fail("planned through round %d, outside [%d,%d]", t.next, done, rounds)
	}
	for r := done; r < t.next && d.err == nil; r++ {
		if t.drawn[r] = d.ids(k, -1, n); len(t.drawn[r]) != k {
			d.fail("round %d cohort has %d slots, want %d", r, len(t.drawn[r]), k)
		}
	}
	d.what = "accountant"
	t.acct.rounds = d.int()
	t.acct.total = CommProfile{ModelsDown: d.int(), ModelsUp: d.int(), VarsDown: d.int(), VarsUp: d.int(), GeneratorsDown: d.int()}
	d.what = "algorithm state"
	t.blob = make([]byte, d.count(maxCkptBlob, 1))
	if _, err := io.ReadFull(d.r, t.blob); err != nil {
		d.fail("%w", err)
	}
	return t, d.err
}

// encode appends what only the async engine carries: its whole loop
// state.
func (st *asyncState) encode(e *enc) {
	e.f64(st.now)
	e.int(st.seq, st.version, st.arrivals, st.dispatches)
	e.ints(st.available)
	e.vector(st.global)
	if len(st.inflight) > maxCkptJobs && e.err == nil {
		e.err = fmt.Errorf("fl: checkpoint: %d in-flight jobs exceeds cap", len(st.inflight))
	}
	e.int(len(st.inflight))
	for _, j := range st.inflight {
		done := 0
		if j.done {
			done = 1
		}
		e.int(j.seq, j.client, j.version, done)
		e.f64(j.arrival)
		e.i64(j.seed)
		e.vector(j.fetch)
		e.vector(j.trained)
	}
}

// parseAsyncState reads asyncState.encode's bytes for a federation of n
// clients and dim parameters. A job's trained vector is absent while it
// awaits the batched training pass, and for fault-crashed clients.
func parseAsyncState(d *dec, n, dim int) (*asyncState, error) {
	d.what = "async state"
	st := &asyncState{now: d.f64(), seq: d.int(), version: d.int(), arrivals: d.int(), dispatches: d.int()}
	st.available = d.ids(n, 0, n)
	st.global = d.vector(dim, false)
	st.inflight = make([]*asyncJob, d.count(maxCkptJobs, minJobBytes))
	d.what = "in-flight jobs"
	for i := range st.inflight {
		j := &asyncJob{seq: d.int(), client: d.int(), version: d.int(), done: d.int() != 0, arrival: d.f64(), seed: d.i64()}
		if j.client < 0 || j.client >= n {
			d.fail("client %d outside [0,%d)", j.client, n)
		}
		j.fetch, j.trained = d.vector(dim, false), d.vector(dim, true)
		st.inflight[i] = j
	}
	return st, d.err
}
