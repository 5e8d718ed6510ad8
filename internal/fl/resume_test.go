package fl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// ckptWireAlgo is wireAlgo plus RoundCheckpointer: the smallest
// in-package algorithm that can ride the engine's kill/resume cycle.
type ckptWireAlgo struct{ wireAlgo }

func (s *ckptWireAlgo) SaveState(w io.Writer) error {
	return nn.EncodeState(w, func(e *nn.StateEncoder) {
		e.Vector(s.global)
		e.RNG(s.rng)
	})
}

func (s *ckptWireAlgo) LoadState(r io.Reader) error {
	return nn.DecodeState(r, func(d *nn.StateDecoder) func() {
		global, rng := d.Vector(len(s.global)), d.RNG()
		return func() { s.global, s.rng = global, rng }
	})
}

func TestCheckpointOptionsValidate(t *testing.T) {
	for _, bad := range []CheckpointOptions{
		{Path: "x", Every: -1},
		{Path: "x", StopAfterRound: -1},
		{Every: 2},
		{Resume: true},
		{StopAfterRound: 3},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%+v should not validate", bad)
		}
	}
	if err := (CheckpointOptions{}).Validate(); err != nil {
		t.Fatal(err)
	}
	if (CheckpointOptions{}).Active() {
		t.Fatal("zero options must be inactive")
	}
}

// resumeCfg is a deliberately hostile setting for the snapshot: faults,
// retries, a quorum, an adversary and a lossy wire all carry live state
// across the kill boundary.
func resumeCfg(par int) Config {
	return Config{Rounds: 6, ClientsPerRound: 4, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Momentum: 0.5, EvalEvery: 1, Seed: 11, Parallelism: par,
		Faults:     FaultOptions{CrashRate: 0.2, DropRate: 0.2, DuplicateRate: 0.2, StallRate: 0.2},
		MinUploads: 2,
		Transport:  TransportOptions{Codec: "fp16", Network: "wifi", Retries: 1, RetryBackoffSec: 0.1},
		Adversary:  AdversaryOptions{Attack: AttackSignFlip, Frac: 0.25},
	}
}

// TestRunCheckpointEveryResume: periodic snapshots (no explicit kill) are
// also valid resume points — resuming from whatever Every left on disk
// reproduces the uninterrupted tail.
func TestRunCheckpointEveryResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := resumeCfg(0)
	cfg.Rounds = 5
	full, err := Run(&ckptWireAlgo{}, testEnv(62, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	every := cfg
	every.Checkpoint = CheckpointOptions{Path: path, Every: 2}
	if _, err := Run(&ckptWireAlgo{}, testEnv(62, 8), every); err != nil {
		t.Fatal(err)
	}
	resumed := cfg
	resumed.Checkpoint = CheckpointOptions{Path: path, Resume: true}
	h, err := Run(&ckptWireAlgo{}, testEnv(62, 8), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, h) {
		t.Fatal("resume from the periodic snapshot diverged from the uninterrupted run")
	}
}

// TestRunResumeRejectsHostileInput: missing files, truncated snapshots,
// garbage bytes and mismatched run parameters all fail with a clear
// error — never a panic, never a silent wrong resume. An algorithm
// without checkpoint support is rejected up front.
func TestRunResumeRejectsHostileInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	cfg := resumeCfg(0)
	cfg.Checkpoint = CheckpointOptions{Path: path, StopAfterRound: 2}
	if _, err := Run(&ckptWireAlgo{}, testEnv(63, 8), cfg); !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	resume := func(p string, cfg Config) error {
		cfg.Checkpoint = CheckpointOptions{Path: p, Resume: true}
		_, err := Run(&ckptWireAlgo{}, testEnv(63, 8), cfg)
		return err
	}
	if err := resume(filepath.Join(dir, "missing.ckpt"), resumeCfg(0)); err == nil {
		t.Fatal("resume from a missing file must fail")
	}
	for _, mutate := range []struct {
		name  string
		bytes []byte
	}{
		{"truncated", raw[:len(raw)/2]},
		{"empty", nil},
		{"garbage", []byte("not a checkpoint at all")},
	} {
		hostile := filepath.Join(dir, mutate.name+".ckpt")
		if err := os.WriteFile(hostile, mutate.bytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := resume(hostile, resumeCfg(0)); err == nil {
			t.Fatalf("resume from %s snapshot must fail", mutate.name)
		}
	}
	wrongSeed := resumeCfg(0)
	wrongSeed.Seed = 999
	if err := resume(path, wrongSeed); err == nil {
		t.Fatal("resume under a different seed must fail")
	}
	// Version 2 held FedCross's state in a format of its own; such a file
	// is refused by its version word, not misread.
	old := bytes.Clone(raw)
	binary.LittleEndian.PutUint64(old[8:], 2)
	v2 := filepath.Join(dir, "v2.ckpt")
	if err := os.WriteFile(v2, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := resume(v2, resumeCfg(0)); err == nil || !strings.Contains(err.Error(), "bad version") {
		t.Fatalf("resume from a version-2 file: %v, want a bad-version error", err)
	}

	// A planned cohort naming a client the federation does not have: the
	// valid snapshot re-encoded with one lookahead cohort holding id 99 of
	// 8 must be refused at load, not index a shard table mid-round.
	spec := runCkptSpec(resumeCfg(0), (&ckptWireAlgo{}).Name(), 8)
	snap, d, err := parseCheckpoint(raw, spec)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := parseRunTail(d, snap.done, 6, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	state := &ckptWireAlgo{}
	if err := state.Init(testEnv(63, 8), resumeCfg(0), tensor.NewRNG(0)); err != nil {
		t.Fatal(err)
	}
	if err := state.LoadState(bytes.NewReader(tail.blob)); err != nil {
		t.Fatal(err)
	}
	planner := &cohortPlanner{next: snap.done + 1, drawn: map[int][]int{snap.done: {99, 0, 1, 2}}}
	lookahead, err := encodeCheckpoint(spec, snap, func(e *nn.StateEncoder) { encodeRunTail(e, snap.done, planner, tail.acct, state) })
	if err != nil {
		t.Fatal(err)
	}
	hostile := filepath.Join(dir, "lookahead.ckpt")
	if err := os.WriteFile(hostile, lookahead, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := resume(hostile, resumeCfg(0)); err == nil || !strings.Contains(err.Error(), "client id 99") {
		t.Fatalf("resume with an out-of-range planned cohort: %v, want a client-id error", err)
	}

	// A stream position is a replay length, and a stream seed must be the
	// one the run's master seed splits: the select stream's 16 draws
	// rewritten to 2^62 (centuries of replay) or its seed flipped must be
	// refused, and the first promptly.
	for _, c := range []struct {
		name string
		edit func(*tensor.RNGState)
		want string
	}{
		{"position", func(st *tensor.RNGState) { st.Pos = 1 << 62 }, "replay limit"},
		{"seed", func(st *tensor.RNGState) { st.Seed ^= 1 }, "select stream seed"},
	} {
		bad := *snap
		c.edit(&bad.streams[0])
		planner := &cohortPlanner{next: tail.next, drawn: tail.drawn}
		data, err := encodeCheckpoint(spec, &bad, func(e *nn.StateEncoder) { encodeRunTail(e, snap.done, planner, tail.acct, state) })
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(hostile, data, 0o644); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		err = resume(hostile, resumeCfg(0))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("resume with a rewritten select stream %s: %v, want %q", c.name, err, c.want)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("resume with a rewritten select stream %s took %v to fail", c.name, d)
		}
	}

	// A count field is not a promise: a 256-byte file declaring 2^22
	// metrics (or 2^20 in-flight jobs) is refused before anything is
	// allocated for them.
	header, err := encodeCheckpoint(spec, &snapshot{done: 2}, func(*nn.StateEncoder) {})
	if err != nil {
		t.Fatal(err)
	}
	lying := make([]byte, 256)
	binary.LittleEndian.PutUint64(lying[copy(lying, header)-8:], maxCkptMetrics)
	if err := os.WriteFile(hostile, lying, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := resume(hostile, resumeCfg(0)); err == nil {
		t.Fatal("resume from a snapshot declaring 2^22 metrics in 256 bytes must fail")
	}
	var jobs nn.StateEncoder
	(&asyncState{global: make(nn.ParamVector, 4)}).encode(&jobs)
	jobBytes, _ := jobs.Bytes()
	lyingJobs := make([]byte, 256)
	binary.LittleEndian.PutUint64(lyingJobs[copy(lyingJobs, jobBytes)-8:], maxCkptJobs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, errMetrics := parseCheckpoint(lying, spec)
	_, errJobs := parseAsyncState(nn.NewStateDecoder(lyingJobs), 8, 4)
	runtime.ReadMemStats(&after)
	if errMetrics == nil || errJobs == nil {
		t.Fatalf("lying counts parsed: metrics %v, jobs %v", errMetrics, errJobs)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("parsing two 256-byte snapshots allocated %d bytes, want < 1 MiB", got)
	}

	plain := resumeCfg(0)
	plain.Checkpoint = CheckpointOptions{Path: path, Resume: true}
	if _, err := Run(&wireAlgo{}, testEnv(63, 8), plain); err == nil {
		t.Fatal("checkpointing without RoundCheckpointer must fail")
	}
}

func asyncResumeCfg() (Config, AsyncOptions) {
	cfg := Config{Rounds: 6, ClientsPerRound: 4, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Momentum: 0.5, EvalEvery: 1, Seed: 13,
		Faults:     FaultOptions{CrashRate: 0.2, DropRate: 0.2, DuplicateRate: 0.2, StallRate: 0.2},
		MinUploads: 1,
		Adversary:  AdversaryOptions{Attack: AttackSignFlip, Frac: 0.25},
	}
	return cfg, AsyncOptions{Buffer: 2, InFlight: 4, Commits: 8}
}

// TestAsyncResumeRejectsHostileInput mirrors the sync hardening for the
// async snapshot format.
func TestAsyncResumeRejectsHostileInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "async.ckpt")
	cfg, opts := asyncResumeCfg()
	cfg.Checkpoint = CheckpointOptions{Path: path, StopAfterRound: 3}
	if _, err := RunAsync(testEnv(65, 8), cfg, opts); !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hostile := filepath.Join(dir, "hostile.ckpt")
	if err := os.WriteFile(hostile, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	badCfg, opts := asyncResumeCfg()
	badCfg.Checkpoint = CheckpointOptions{Path: hostile, Resume: true}
	if _, err := RunAsync(testEnv(65, 8), badCfg, opts); err == nil {
		t.Fatal("async resume from a truncated snapshot must fail")
	}
	wrongSeed, opts2 := asyncResumeCfg()
	wrongSeed.Seed = 999
	wrongSeed.Checkpoint = CheckpointOptions{Path: path, Resume: true}
	if _, err := RunAsync(testEnv(65, 8), wrongSeed, opts2); err == nil {
		t.Fatal("async resume under a different seed must fail")
	}

	// A job record holds what dispatch fixed and nothing else: one that
	// still carries a trained upload (version 4's record) under the
	// current version word, or a crash flag other than 0 or 1, is refused.
	dim := len(nn.FlattenParams(testEnv(65, 8).Model.New(tensor.NewRNG(1)).Params()))
	spec := asyncCkptSpec(cfg, opts.resolve(cfg), 8, dim)
	snap, d, err := parseCheckpoint(raw, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := parseAsyncState(d, 8, dim)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := encodeCheckpoint(spec, snap, st.encode); err != nil || !bytes.Equal(again, raw) {
		t.Fatalf("the parsed snapshot re-encodes to other bytes (%v)", err)
	}
	if len(st.inflight) == 0 {
		t.Fatal("the snapshot holds no in-flight job to rewrite")
	}
	for _, c := range []struct {
		name   string
		record func(e *nn.StateEncoder, j *asyncJob)
		want   string
	}{
		{"a trained upload", func(e *nn.StateEncoder, j *asyncJob) {
			e.Int(j.seq, j.client, j.version, 0)
			e.F64(j.arrival)
			e.I64(j.seed)
			e.Vector(j.fetch)
			e.Vector(j.fetch)
		}, "in-flight jobs"},
		{"crash flag 2", func(e *nn.StateEncoder, j *asyncJob) {
			e.Int(j.seq, j.client, j.version, 2)
			e.F64(j.arrival)
			e.I64(j.seed)
			e.Vector(j.fetch)
		}, "crash flag 2, want 0 or 1"},
	} {
		data, err := encodeCheckpoint(spec, snap, func(e *nn.StateEncoder) {
			e.F64(st.now)
			e.Int(st.seq, st.version, st.arrivals, st.dispatches)
			e.Ints(st.available)
			e.Vector(st.global)
			e.Int(len(st.inflight))
			for _, j := range st.inflight {
				c.record(e, j)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(hostile, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := RunAsync(testEnv(65, 8), badCfg, opts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("async resume from job records with %s: %v, want %q", c.name, err, c.want)
		}
	}
}

// TestResumeRefusesOldVersions: a version-3 snapshot holds a
// selection-stream position on the Perm(n) stream, so resuming it would
// draw other cohorts than the run it came from; a version-4 async
// snapshot carries a trained upload in every job record that version 5
// does not have. Both engines' snapshots, forged back to each version,
// are refused by their version word, and the error names both versions.
func TestResumeRefusesOldVersions(t *testing.T) {
	dir := t.TempDir()
	runCfg := resumeCfg(0)
	asyncCfg, opts := asyncResumeCfg()
	for _, c := range []struct {
		name string
		run  func(Config) error
		cfg  Config
	}{
		{"run", func(cfg Config) error { _, err := Run(&ckptWireAlgo{}, testEnv(63, 8), cfg); return err }, runCfg},
		{"async", func(cfg Config) error { _, err := RunAsync(testEnv(65, 8), cfg, opts); return err }, asyncCfg},
	} {
		for _, old := range []uint64{3, 4} {
			path := filepath.Join(dir, fmt.Sprintf("%s-v%d.ckpt", c.name, old))
			cfg := c.cfg
			cfg.Checkpoint = CheckpointOptions{Path: path, StopAfterRound: 2}
			if err := c.run(cfg); !errors.Is(err, ErrStopped) {
				t.Fatalf("%s: want ErrStopped, got %v", c.name, err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint64(raw[8:], old)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			cfg.Checkpoint = CheckpointOptions{Path: path, Resume: true}
			want := fmt.Sprintf("bad version %#x (want %#x)", old, ckptVersion)
			if err := c.run(cfg); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: resume from a version-%d snapshot: %v, want %s", c.name, old, err, want)
			}
		}
	}
}
