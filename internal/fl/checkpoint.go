package fl

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
// All six built-in algorithms implement it, through nn's state codec;
// Run returns a clear error if checkpointing is requested for an
// algorithm that does not.
type RoundCheckpointer interface {
	// SaveState writes the algorithm's complete inter-round state.
	SaveState(w io.Writer) error
	// LoadState restores state written by SaveState, overwriting
	// whatever Init produced — all of it, or on error none of it.
	LoadState(r io.Reader) error
}

const (
	runCkptMagic   = 0x4352_4C46 // "FLRC" little-endian
	asyncCkptMagic = 0x4341_4C46 // "FLAC" little-endian
	// ckptVersion 5 is version 4's container (one header, body and metric
	// list under both magics, then the engine's tail, every state in nn's
	// codec, selection stream v2) with the async in-flight job record cut
	// to what dispatch fixed: a version-4 job also carries a trained
	// upload. Version 4 moved to selection stream v2
	// (tensor.RNG.SampleV2): a version-3 selection-stream position counts
	// Perm(n)'s draws and would resume onto other cohorts.
	ckptVersion    = 5
	maxCkptBlob    = 1 << 31
	maxCkptMetrics = 1 << 22
	// maxCkptJobs caps the persisted in-flight set (InFlight is
	// user-bounded well below this; the cap is load hardening).
	maxCkptJobs = 1 << 20
	// metricBytes and minJobBytes are the smallest serialized metric and
	// in-flight job: a declared count must fit the bytes actually present
	// before anything is allocated for it.
	metricBytes = 14 * 8
	minJobBytes = 7 * 8
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

func (c counters) encode(e *nn.StateEncoder) {
	e.I64(c.BytesDown, c.BytesUp)
	e.Int(c.Stragglers, c.Retries, c.FaultDrops, c.Duplicates, c.Stalls, c.Crashes, c.Unavailable, c.Degraded)
}

func decodeCounters(d *nn.StateDecoder) counters {
	return counters{
		BytesDown: d.I64(), BytesUp: d.I64(),
		Stragglers: d.Int(), Retries: d.Int(), FaultDrops: d.Int(), Duplicates: d.Int(),
		Stalls: d.Int(), Crashes: d.Int(), Unavailable: d.Int(), Degraded: d.Int(),
	}
}

// encodeCheckpoint serializes the container: header, shared body, then
// whatever the engine's tail appends.
func encodeCheckpoint(spec ckptSpec, snap *snapshot, tail func(*nn.StateEncoder)) ([]byte, error) {
	var e nn.StateEncoder
	e.U64(spec.magic, ckptVersion)
	e.I64(spec.seed)
	e.String(spec.label)
	e.Int(spec.shape...)
	e.Int(snap.done)
	snap.cum.encode(&e)
	for _, st := range snap.streams {
		e.I64(st.Seed)
		e.U64(st.Pos)
	}
	if len(snap.metrics) > maxCkptMetrics {
		return nil, fmt.Errorf("fl: checkpoint: %d metrics exceeds cap", len(snap.metrics))
	}
	e.Int(len(snap.metrics))
	for _, m := range snap.metrics {
		e.Int(m.Round)
		e.F64(m.TestAcc, m.TestLoss, m.CumModelEquivalents)
		metricCounters(m).encode(&e)
	}
	tail(&e)
	return e.Bytes()
}

// parseCheckpoint reads and validates the container against the resuming
// run, returning the shared body and the decoder positioned at the
// engine's tail. Every length is capped and checked against the bytes
// present, and every header field cross-checked, so a hostile or stale
// file fails with a clear error and never sizes an allocation.
func parseCheckpoint(data []byte, spec ckptSpec) (*snapshot, *nn.StateDecoder, error) {
	d := nn.NewStateDecoder(data)
	d.Section("header")
	for _, h := range []struct {
		what string
		want uint64
	}{{"magic", spec.magic}, {"version", ckptVersion}} {
		if got := d.U64(); got != h.want {
			d.Fail("bad %s %#x (want %#x)", h.what, got, h.want)
		}
	}
	if seed := d.I64(); seed != spec.seed {
		d.Fail("checkpoint seed %d != run seed %d", seed, spec.seed)
	}
	if label := d.String(); label != spec.label {
		d.Fail("checkpoint algorithm %q != run algorithm %q", label, spec.label)
	}
	shape := make([]int, len(spec.shape))
	for i := range shape {
		shape[i] = d.Int()
	}
	if !slices.Equal(shape, spec.shape) {
		d.Fail("checkpoint shape %v != run %v", shape, spec.shape)
	}
	d.Section("body")
	snap := &snapshot{done: d.Int()}
	if snap.done < 0 || snap.done > spec.total {
		d.Fail("%d rounds done, outside [0,%d]", snap.done, spec.total)
	}
	snap.cum = decodeCounters(d)
	for i := range snap.streams {
		snap.streams[i] = tensor.RNGState{Seed: d.I64(), Pos: d.U64()}
	}
	d.Section("metrics")
	snap.metrics = make([]RoundMetric, d.Count(maxCkptMetrics, metricBytes))
	for i := range snap.metrics {
		round, acc, loss, modelEq := d.Int(), d.F64(), d.F64(), d.F64()
		snap.metrics[i] = decodeCounters(d).metric(round, acc, loss, modelEq)
	}
	d.Section("tail")
	return snap, d, d.Err()
}

// atomicWriteFile serializes the snapshot write-ahead: the bytes land in
// a temp file in the destination directory, then rename into place, so a
// crash at any instant leaves either the old snapshot or the new one —
// never a torn file.
func atomicWriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// encodeRunTail appends what only the sync engine carries: the planner's
// cursor and the cohorts it drew past the boundary (they left the
// selection stream before the snapshot position, so they must travel with
// it), the accountant, and the algorithm's own state.
func encodeRunTail(e *nn.StateEncoder, done int, planner *cohortPlanner, acct Accountant, algo Algorithm) {
	e.Int(planner.next)
	for r := done; r < planner.next; r++ {
		e.Ints(planner.drawn[r])
	}
	t := acct.total
	e.Int(acct.rounds, t.ModelsDown, t.ModelsUp, t.VarsDown, t.VarsUp, t.GeneratorsDown)
	var blob bytes.Buffer
	if err := algo.(RoundCheckpointer).SaveState(&blob); err != nil {
		e.Fail(err)
	} else if blob.Len() > maxCkptBlob {
		e.Fail(fmt.Errorf("fl: checkpoint %s state %d bytes exceeds cap", algo.Name(), blob.Len()))
	}
	e.Blob(blob.Bytes())
}

// runTail is encodeRunTail's bytes read back; the algorithm blob is
// returned for the algorithm's own LoadState to decode.
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
func parseRunTail(d *nn.StateDecoder, done, rounds, n, k int) (*runTail, error) {
	d.Section("planner")
	t := &runTail{next: d.Int(), drawn: map[int][]int{}}
	if t.next < done || t.next > rounds {
		d.Fail("planned through round %d, outside [%d,%d]", t.next, done, rounds)
	}
	for r := done; r < t.next && d.Err() == nil; r++ {
		if t.drawn[r] = d.IDs(k, -1, n); len(t.drawn[r]) != k {
			d.Fail("round %d cohort has %d slots, want %d", r, len(t.drawn[r]), k)
		}
	}
	d.Section("accountant")
	t.acct.rounds = d.Int()
	t.acct.total = CommProfile{ModelsDown: d.Int(), ModelsUp: d.Int(), VarsDown: d.Int(), VarsUp: d.Int(), GeneratorsDown: d.Int()}
	d.Section("algorithm state")
	t.blob = d.Blob(maxCkptBlob)
	return t, d.Finish()
}

// encode appends what only the async engine carries: its whole loop
// state. An in-flight job is recorded as dispatched — fetch, stream seed
// and crash flag — never with its trained upload: whether a job has
// trained by a commit depends on timing, and the snapshot must not.
func (st *asyncState) encode(e *nn.StateEncoder) {
	e.F64(st.now)
	e.Int(st.seq, st.version, st.arrivals, st.dispatches)
	e.Ints(st.available)
	e.Vector(st.global)
	if len(st.inflight) > maxCkptJobs {
		e.Fail(fmt.Errorf("fl: checkpoint: %d in-flight jobs exceeds cap", len(st.inflight)))
	}
	e.Int(len(st.inflight))
	for _, j := range st.inflight {
		crashed := 0
		if j.crashed {
			crashed = 1
		}
		e.Int(j.seq, j.client, j.version, crashed)
		e.F64(j.arrival)
		e.I64(j.seed)
		e.Vector(j.fetch)
	}
}

// parseAsyncState reads asyncState.encode's bytes for a federation of n
// clients and dim parameters.
func parseAsyncState(d *nn.StateDecoder, n, dim int) (*asyncState, error) {
	d.Section("async state")
	st := &asyncState{now: d.F64(), seq: d.Int(), version: d.Int(), arrivals: d.Int(), dispatches: d.Int()}
	st.available = d.IDs(n, 0, n)
	st.global = d.Vector(dim)
	st.inflight = make([]*asyncJob, d.Count(maxCkptJobs, minJobBytes))
	d.Section("in-flight jobs")
	for i := range st.inflight {
		j := &asyncJob{seq: d.Int(), client: d.Int(), version: d.Int()}
		if j.client < 0 || j.client >= n {
			d.Fail("client %d outside [0,%d)", j.client, n)
		}
		if crashed := d.U64(); crashed > 1 {
			d.Fail("job %d crash flag %d, want 0 or 1", j.seq, crashed)
		} else {
			j.crashed = crashed == 1
		}
		j.arrival, j.seed, j.fetch = d.F64(), d.I64(), d.Vector(dim)
		st.inflight[i] = j
	}
	return st, d.Finish()
}
