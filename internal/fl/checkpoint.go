package fl

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

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
	ckptVersion    = 1
	maxCkptBlob    = 1 << 31
	maxCkptMetrics = 1 << 22
)

// runSnapshot is everything fl.Run needs to reconstruct the exact state
// at a round boundary. Fault, churn, and adversary schedules are absent
// by design: they are pure functions of the seed, recomputed on resume.
type runSnapshot struct {
	nextRound int

	selState    tensor.RNGState
	plannerNext int
	drawn       map[int][]int
	dropState   tensor.RNGState
	netState    tensor.RNGState

	crashes     int
	unavailable int
	degraded    int

	trCum struct {
		down, up                                      int64
		stragglers, retries, faultDrops, dups, stalls int
	}

	acctRounds int
	acctTotal  CommProfile

	metrics []RoundMetric

	algoBlob []byte
}

// writeRNGState / readRNGState serialize a stream position.
func writeRNGState(w io.Writer, st tensor.RNGState) error {
	if err := nn.WriteI64(w, st.Seed); err != nil {
		return err
	}
	return nn.WriteU64(w, st.Pos)
}

func readRNGState(r io.Reader) (tensor.RNGState, error) {
	seed, err := nn.ReadI64(r)
	if err != nil {
		return tensor.RNGState{}, err
	}
	pos, err := nn.ReadU64(r)
	if err != nil {
		return tensor.RNGState{}, err
	}
	return tensor.RNGState{Seed: seed, Pos: pos}, nil
}

func writeMetric(w io.Writer, m RoundMetric) error {
	ints := []int64{
		int64(m.Round), int64(m.CumBytesDown), int64(m.CumBytesUp),
		int64(m.CumStragglers), int64(m.CumRetries), int64(m.CumFaultDrops),
		int64(m.CumDuplicates), int64(m.CumStalls), int64(m.CumCrashes),
		int64(m.CumUnavailable), int64(m.CumDegraded),
	}
	for _, v := range ints {
		if err := nn.WriteI64(w, v); err != nil {
			return err
		}
	}
	for _, f := range []float64{m.TestAcc, m.TestLoss, m.CumModelEquivalents} {
		if err := nn.WriteF64(w, f); err != nil {
			return err
		}
	}
	return nil
}

func readMetric(r io.Reader) (RoundMetric, error) {
	var ints [11]int64
	for i := range ints {
		v, err := nn.ReadI64(r)
		if err != nil {
			return RoundMetric{}, err
		}
		ints[i] = v
	}
	var floats [3]float64
	for i := range floats {
		v, err := nn.ReadF64(r)
		if err != nil {
			return RoundMetric{}, err
		}
		floats[i] = v
	}
	return RoundMetric{
		Round: int(ints[0]), CumBytesDown: ints[1], CumBytesUp: ints[2],
		CumStragglers: int(ints[3]), CumRetries: int(ints[4]),
		CumFaultDrops: int(ints[5]), CumDuplicates: int(ints[6]),
		CumStalls: int(ints[7]), CumCrashes: int(ints[8]),
		CumUnavailable: int(ints[9]), CumDegraded: int(ints[10]),
		TestAcc: floats[0], TestLoss: floats[1], CumModelEquivalents: floats[2],
	}, nil
}

func writeComm(w io.Writer, p CommProfile) error {
	for _, v := range []int{p.ModelsDown, p.ModelsUp, p.VarsDown, p.VarsUp, p.GeneratorsDown} {
		if err := nn.WriteI64(w, int64(v)); err != nil {
			return err
		}
	}
	return nil
}

func readComm(r io.Reader) (CommProfile, error) {
	var vs [5]int64
	for i := range vs {
		v, err := nn.ReadI64(r)
		if err != nil {
			return CommProfile{}, err
		}
		vs[i] = v
	}
	return CommProfile{ModelsDown: int(vs[0]), ModelsUp: int(vs[1]), VarsDown: int(vs[2]), VarsUp: int(vs[3]), GeneratorsDown: int(vs[4])}, nil
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

// saveRunCheckpoint serializes a round-boundary snapshot for fl.Run.
func saveRunCheckpoint(path string, cfg Config, algo Algorithm, n int, snap *runSnapshot) error {
	rc, ok := algo.(RoundCheckpointer)
	if !ok {
		return fmt.Errorf("fl: algorithm %s does not support round checkpoints", algo.Name())
	}
	var buf bytes.Buffer
	w := &buf
	for _, v := range []uint64{runCkptMagic, ckptVersion} {
		if err := nn.WriteU64(w, v); err != nil {
			return err
		}
	}
	if err := nn.WriteI64(w, cfg.Seed); err != nil {
		return err
	}
	if err := nn.WriteString(w, algo.Name()); err != nil {
		return err
	}
	for _, v := range []int64{
		int64(cfg.Rounds), int64(cfg.ClientsPerRound), int64(n), int64(snap.nextRound),
		int64(snap.plannerNext),
		int64(snap.crashes), int64(snap.unavailable), int64(snap.degraded),
		snap.trCum.down, snap.trCum.up,
		int64(snap.trCum.stragglers), int64(snap.trCum.retries),
		int64(snap.trCum.faultDrops), int64(snap.trCum.dups), int64(snap.trCum.stalls),
		int64(snap.acctRounds),
	} {
		if err := nn.WriteI64(w, v); err != nil {
			return err
		}
	}
	for _, st := range []tensor.RNGState{snap.selState, snap.dropState, snap.netState} {
		if err := writeRNGState(w, st); err != nil {
			return err
		}
	}
	// Planner lookahead cohorts drawn past the boundary: these left the
	// selection stream before the snapshot position, so they must travel
	// with it.
	keys := make([]int, 0, len(snap.drawn))
	for k := range snap.drawn {
		keys = append(keys, k)
	}
	sortInts(keys)
	if err := nn.WriteU64(w, uint64(len(keys))); err != nil {
		return err
	}
	for _, k := range keys {
		if err := nn.WriteI64(w, int64(k)); err != nil {
			return err
		}
		if err := nn.WriteIntSlice(w, snap.drawn[k]); err != nil {
			return err
		}
	}
	if err := writeComm(w, snap.acctTotal); err != nil {
		return err
	}
	if err := nn.WriteU64(w, uint64(len(snap.metrics))); err != nil {
		return err
	}
	for _, m := range snap.metrics {
		if err := writeMetric(w, m); err != nil {
			return err
		}
	}
	var algoBuf bytes.Buffer
	if err := rc.SaveState(&algoBuf); err != nil {
		return fmt.Errorf("fl: checkpoint %s state: %w", algo.Name(), err)
	}
	if algoBuf.Len() > maxCkptBlob {
		return fmt.Errorf("fl: checkpoint %s state %d bytes exceeds cap", algo.Name(), algoBuf.Len())
	}
	if err := nn.WriteU64(w, uint64(algoBuf.Len())); err != nil {
		return err
	}
	if _, err := w.Write(algoBuf.Bytes()); err != nil {
		return err
	}
	return atomicWriteFile(path, buf.Bytes())
}

// loadRunCheckpoint reads and validates a snapshot against the resuming
// run's configuration, restores the algorithm's state, and returns the
// engine-side snapshot. Every length is capped and every header field
// cross-checked, so a hostile or stale file fails with a clear error.
func loadRunCheckpoint(path string, cfg Config, algo Algorithm, n int) (*runSnapshot, error) {
	rc, ok := algo.(RoundCheckpointer)
	if !ok {
		return nil, fmt.Errorf("fl: algorithm %s does not support round checkpoints", algo.Name())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fl: resume: %w", err)
	}
	r := bytes.NewReader(data)
	for i, want := range []uint64{runCkptMagic, ckptVersion} {
		got, err := nn.ReadU64(r)
		if err != nil {
			return nil, fmt.Errorf("fl: resume %s: truncated header", path)
		}
		if got != want {
			what := "magic"
			if i == 1 {
				what = "version"
			}
			return nil, fmt.Errorf("fl: resume %s: bad %s %#x (want %#x)", path, what, got, want)
		}
	}
	seed, err := nn.ReadI64(r)
	if err != nil {
		return nil, err
	}
	if seed != cfg.Seed {
		return nil, fmt.Errorf("fl: resume %s: checkpoint seed %d != run seed %d", path, seed, cfg.Seed)
	}
	name, err := nn.ReadString(r)
	if err != nil {
		return nil, err
	}
	if name != algo.Name() {
		return nil, fmt.Errorf("fl: resume %s: checkpoint algorithm %q != run algorithm %q", path, name, algo.Name())
	}
	var ints [16]int64
	for i := range ints {
		v, err := nn.ReadI64(r)
		if err != nil {
			return nil, fmt.Errorf("fl: resume %s: truncated body", path)
		}
		ints[i] = v
	}
	if int(ints[0]) != cfg.Rounds || int(ints[1]) != cfg.ClientsPerRound || int(ints[2]) != n {
		return nil, fmt.Errorf("fl: resume %s: checkpoint shape (rounds %d, k %d, n %d) != run (%d, %d, %d)",
			path, ints[0], ints[1], ints[2], cfg.Rounds, cfg.ClientsPerRound, n)
	}
	snap := &runSnapshot{
		nextRound:   int(ints[3]),
		plannerNext: int(ints[4]),
		crashes:     int(ints[5]),
		unavailable: int(ints[6]),
		degraded:    int(ints[7]),
		acctRounds:  int(ints[15]),
		drawn:       map[int][]int{},
	}
	snap.trCum.down, snap.trCum.up = ints[8], ints[9]
	snap.trCum.stragglers, snap.trCum.retries = int(ints[10]), int(ints[11])
	snap.trCum.faultDrops, snap.trCum.dups, snap.trCum.stalls = int(ints[12]), int(ints[13]), int(ints[14])
	if snap.nextRound < 0 || snap.nextRound > cfg.Rounds {
		return nil, fmt.Errorf("fl: resume %s: next round %d outside [0,%d]", path, snap.nextRound, cfg.Rounds)
	}
	for _, dst := range []*tensor.RNGState{&snap.selState, &snap.dropState, &snap.netState} {
		st, err := readRNGState(r)
		if err != nil {
			return nil, fmt.Errorf("fl: resume %s: truncated RNG state", path)
		}
		*dst = st
	}
	nDrawn, err := nn.ReadU64(r)
	if err != nil {
		return nil, err
	}
	if nDrawn > maxCkptMetrics {
		return nil, fmt.Errorf("fl: resume %s: %d planned cohorts exceeds cap", path, nDrawn)
	}
	for i := uint64(0); i < nDrawn; i++ {
		k, err := nn.ReadI64(r)
		if err != nil {
			return nil, err
		}
		ids, err := nn.ReadIntSlice(r)
		if err != nil {
			return nil, fmt.Errorf("fl: resume %s: planned cohort: %w", path, err)
		}
		snap.drawn[int(k)] = ids
	}
	if snap.acctTotal, err = readComm(r); err != nil {
		return nil, err
	}
	nMetrics, err := nn.ReadU64(r)
	if err != nil {
		return nil, err
	}
	if nMetrics > maxCkptMetrics {
		return nil, fmt.Errorf("fl: resume %s: %d metrics exceeds cap", path, nMetrics)
	}
	snap.metrics = make([]RoundMetric, nMetrics)
	for i := range snap.metrics {
		if snap.metrics[i], err = readMetric(r); err != nil {
			return nil, fmt.Errorf("fl: resume %s: metric %d: %w", path, i, err)
		}
	}
	blobLen, err := nn.ReadU64(r)
	if err != nil {
		return nil, err
	}
	if blobLen > maxCkptBlob {
		return nil, fmt.Errorf("fl: resume %s: algorithm state %d bytes exceeds cap", path, blobLen)
	}
	if uint64(r.Len()) < blobLen {
		return nil, fmt.Errorf("fl: resume %s: algorithm state truncated (%d of %d bytes)", path, r.Len(), blobLen)
	}
	blob := make([]byte, blobLen)
	if _, err := io.ReadFull(r, blob); err != nil {
		return nil, err
	}
	if err := rc.LoadState(bytes.NewReader(blob)); err != nil {
		return nil, fmt.Errorf("fl: resume %s: %s state: %w", path, algo.Name(), err)
	}
	return snap, nil
}

// asyncJobSnap is one in-flight activation as persisted at a commit
// boundary: trained is nil for jobs still awaiting the batched training
// pass and for fault-crashed clients (whose fold is skipped on arrival).
type asyncJobSnap struct {
	seq, client, version int
	arrival              float64
	done                 bool
	fetch, trained       nn.ParamVector
	rng                  tensor.RNGState
}

// asyncSnapshot is everything RunAsync needs to reconstruct its state at
// a commit boundary. The staleness accumulator is deliberately absent:
// commits fire exactly when it is zeroed, so every snapshot point has an
// empty window by construction.
type asyncSnapshot struct {
	nextCommit int
	now        float64
	seq        int
	version    int
	arrivals   int
	dispatches int

	crashes, faultDrops, dups, stalls, degraded int
	bytesDown, bytesUp                          int64

	selState, timeState, jobState tensor.RNGState

	available []int
	global    nn.ParamVector
	metrics   []RoundMetric
	jobs      []asyncJobSnap
}

// maxCkptJobs caps the persisted in-flight set (InFlight is user-bounded
// well below this; the cap is load hardening).
const maxCkptJobs = 1 << 20

// saveAsyncCheckpoint serializes a commit-boundary snapshot for RunAsync.
func saveAsyncCheckpoint(path string, cfg Config, opts AsyncOptions, n, dim int, snap *asyncSnapshot) error {
	var buf bytes.Buffer
	w := &buf
	for _, v := range []uint64{asyncCkptMagic, ckptVersion} {
		if err := nn.WriteU64(w, v); err != nil {
			return err
		}
	}
	if err := nn.WriteI64(w, cfg.Seed); err != nil {
		return err
	}
	for _, v := range []int64{
		int64(opts.Commits), int64(opts.Buffer), int64(opts.InFlight), int64(n), int64(dim),
		int64(snap.nextCommit), int64(snap.seq), int64(snap.version),
		int64(snap.arrivals), int64(snap.dispatches),
		int64(snap.crashes), int64(snap.faultDrops), int64(snap.dups),
		int64(snap.stalls), int64(snap.degraded),
		snap.bytesDown, snap.bytesUp,
	} {
		if err := nn.WriteI64(w, v); err != nil {
			return err
		}
	}
	if err := nn.WriteF64(w, snap.now); err != nil {
		return err
	}
	for _, st := range []tensor.RNGState{snap.selState, snap.timeState, snap.jobState} {
		if err := writeRNGState(w, st); err != nil {
			return err
		}
	}
	if err := nn.WriteIntSlice(w, snap.available); err != nil {
		return err
	}
	if err := nn.WriteVector(w, snap.global); err != nil {
		return err
	}
	if err := nn.WriteU64(w, uint64(len(snap.metrics))); err != nil {
		return err
	}
	for _, m := range snap.metrics {
		if err := writeMetric(w, m); err != nil {
			return err
		}
	}
	if len(snap.jobs) > maxCkptJobs {
		return fmt.Errorf("fl: checkpoint: %d in-flight jobs exceeds cap", len(snap.jobs))
	}
	if err := nn.WriteU64(w, uint64(len(snap.jobs))); err != nil {
		return err
	}
	for _, j := range snap.jobs {
		for _, v := range []int64{int64(j.seq), int64(j.client), int64(j.version)} {
			if err := nn.WriteI64(w, v); err != nil {
				return err
			}
		}
		if err := nn.WriteF64(w, j.arrival); err != nil {
			return err
		}
		done := int64(0)
		if j.done {
			done = 1
		}
		if err := nn.WriteI64(w, done); err != nil {
			return err
		}
		if err := nn.WriteVector(w, j.fetch); err != nil {
			return err
		}
		if err := nn.WriteVector(w, j.trained); err != nil {
			return err
		}
		if err := writeRNGState(w, j.rng); err != nil {
			return err
		}
	}
	return atomicWriteFile(path, buf.Bytes())
}

// loadAsyncCheckpoint reads and validates a snapshot written by
// saveAsyncCheckpoint against the resuming run's configuration.
func loadAsyncCheckpoint(path string, cfg Config, opts AsyncOptions, n, dim int) (*asyncSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fl: resume: %w", err)
	}
	r := bytes.NewReader(data)
	for i, want := range []uint64{asyncCkptMagic, ckptVersion} {
		got, err := nn.ReadU64(r)
		if err != nil {
			return nil, fmt.Errorf("fl: resume %s: truncated header", path)
		}
		if got != want {
			what := "magic"
			if i == 1 {
				what = "version"
			}
			return nil, fmt.Errorf("fl: resume %s: bad %s %#x (want %#x)", path, what, got, want)
		}
	}
	seed, err := nn.ReadI64(r)
	if err != nil {
		return nil, err
	}
	if seed != cfg.Seed {
		return nil, fmt.Errorf("fl: resume %s: checkpoint seed %d != run seed %d", path, seed, cfg.Seed)
	}
	var ints [17]int64
	for i := range ints {
		v, err := nn.ReadI64(r)
		if err != nil {
			return nil, fmt.Errorf("fl: resume %s: truncated body", path)
		}
		ints[i] = v
	}
	if int(ints[0]) != opts.Commits || int(ints[1]) != opts.Buffer || int(ints[2]) != opts.InFlight ||
		int(ints[3]) != n || int(ints[4]) != dim {
		return nil, fmt.Errorf("fl: resume %s: checkpoint shape (commits %d, B %d, M %d, n %d, dim %d) != run (%d, %d, %d, %d, %d)",
			path, ints[0], ints[1], ints[2], ints[3], ints[4],
			opts.Commits, opts.Buffer, opts.InFlight, n, dim)
	}
	snap := &asyncSnapshot{
		nextCommit: int(ints[5]), seq: int(ints[6]), version: int(ints[7]),
		arrivals: int(ints[8]), dispatches: int(ints[9]),
		crashes: int(ints[10]), faultDrops: int(ints[11]), dups: int(ints[12]),
		stalls: int(ints[13]), degraded: int(ints[14]),
		bytesDown: ints[15], bytesUp: ints[16],
	}
	if snap.nextCommit < 0 || snap.nextCommit > opts.Commits {
		return nil, fmt.Errorf("fl: resume %s: next commit %d outside [0,%d]", path, snap.nextCommit, opts.Commits)
	}
	if snap.now, err = nn.ReadF64(r); err != nil {
		return nil, err
	}
	for _, dst := range []*tensor.RNGState{&snap.selState, &snap.timeState, &snap.jobState} {
		st, err := readRNGState(r)
		if err != nil {
			return nil, fmt.Errorf("fl: resume %s: truncated RNG state", path)
		}
		*dst = st
	}
	if snap.available, err = nn.ReadIntSlice(r); err != nil {
		return nil, fmt.Errorf("fl: resume %s: available pool: %w", path, err)
	}
	for _, id := range snap.available {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("fl: resume %s: available client %d outside [0,%d)", path, id, n)
		}
	}
	if snap.global, err = nn.ReadVector(r); err != nil {
		return nil, fmt.Errorf("fl: resume %s: global: %w", path, err)
	}
	if len(snap.global) != dim {
		return nil, fmt.Errorf("fl: resume %s: global has %d params, want %d", path, len(snap.global), dim)
	}
	nMetrics, err := nn.ReadU64(r)
	if err != nil {
		return nil, err
	}
	if nMetrics > maxCkptMetrics {
		return nil, fmt.Errorf("fl: resume %s: %d metrics exceeds cap", path, nMetrics)
	}
	snap.metrics = make([]RoundMetric, nMetrics)
	for i := range snap.metrics {
		if snap.metrics[i], err = readMetric(r); err != nil {
			return nil, fmt.Errorf("fl: resume %s: metric %d: %w", path, i, err)
		}
	}
	nJobs, err := nn.ReadU64(r)
	if err != nil {
		return nil, err
	}
	if nJobs > maxCkptJobs {
		return nil, fmt.Errorf("fl: resume %s: %d in-flight jobs exceeds cap", path, nJobs)
	}
	snap.jobs = make([]asyncJobSnap, nJobs)
	for i := range snap.jobs {
		j := &snap.jobs[i]
		var jv [3]int64
		for k := range jv {
			if jv[k], err = nn.ReadI64(r); err != nil {
				return nil, fmt.Errorf("fl: resume %s: job %d: %w", path, i, err)
			}
		}
		j.seq, j.client, j.version = int(jv[0]), int(jv[1]), int(jv[2])
		if j.client < 0 || j.client >= n {
			return nil, fmt.Errorf("fl: resume %s: job %d client %d outside [0,%d)", path, i, j.client, n)
		}
		if j.arrival, err = nn.ReadF64(r); err != nil {
			return nil, err
		}
		done, err := nn.ReadI64(r)
		if err != nil {
			return nil, err
		}
		j.done = done != 0
		if j.fetch, err = nn.ReadVector(r); err != nil {
			return nil, fmt.Errorf("fl: resume %s: job %d fetch: %w", path, i, err)
		}
		if len(j.fetch) != dim {
			return nil, fmt.Errorf("fl: resume %s: job %d fetch has %d params, want %d", path, i, len(j.fetch), dim)
		}
		if j.trained, err = nn.ReadVector(r); err != nil {
			return nil, fmt.Errorf("fl: resume %s: job %d trained: %w", path, i, err)
		}
		if j.trained != nil && len(j.trained) != dim {
			return nil, fmt.Errorf("fl: resume %s: job %d trained has %d params, want %d", path, i, len(j.trained), dim)
		}
		if j.rng, err = readRNGState(r); err != nil {
			return nil, fmt.Errorf("fl: resume %s: job %d rng: %w", path, i, err)
		}
	}
	return snap, nil
}

// sortInts is a tiny insertion sort for the handful of lookahead keys a
// snapshot carries, avoiding a sort import for this one site.
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// captureCum snapshots the transport's cumulative counters.
func (t *Transport) captureCum(snap *runSnapshot) {
	if t == nil {
		return
	}
	snap.trCum.down, snap.trCum.up = t.cumDown, t.cumUp
	snap.trCum.stragglers, snap.trCum.retries = t.cumStragglers, t.cumRetries
	snap.trCum.faultDrops, snap.trCum.dups, snap.trCum.stalls = t.cumFaultDrops, t.cumDuplicates, t.cumStalls
}

// restoreCum overwrites the transport's cumulative counters from a
// snapshot.
func (t *Transport) restoreCum(snap *runSnapshot) {
	if t == nil {
		return
	}
	t.cumDown, t.cumUp = snap.trCum.down, snap.trCum.up
	t.cumStragglers, t.cumRetries = snap.trCum.stragglers, snap.trCum.retries
	t.cumFaultDrops, t.cumDuplicates, t.cumStalls = snap.trCum.faultDrops, snap.trCum.dups, snap.trCum.stalls
}
