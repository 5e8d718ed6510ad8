package fl

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"fedcross/internal/tensor"
)

// FuzzCheckpointLoad holds the snapshot reader to its contract on
// arbitrary bytes under both magics: an error, or a snapshot every field
// of which passes the validation a resuming run relies on, streams
// included — never a panic, never a count the bytes present could not
// back, never a replay without end. Seeds are a valid snapshot of each
// engine plus the truncated, garbage and empty cases of the two
// hostile-input tests.
func FuzzCheckpointLoad(f *testing.F) {
	dir := f.TempDir()
	const n, dim = 8, 12*16 + 16 + 16*4 + 4 // testEnv's population and MLP(12, 16, 4)
	runCfg := resumeCfg(0)
	runCfg.Checkpoint = CheckpointOptions{Path: filepath.Join(dir, "run.ckpt"), StopAfterRound: 2}
	if _, err := Run(&ckptWireAlgo{}, testEnv(63, n), runCfg); !errors.Is(err, ErrStopped) {
		f.Fatalf("want ErrStopped, got %v", err)
	}
	asyncCfg, opts := asyncResumeCfg()
	asyncCfg.Checkpoint = CheckpointOptions{Path: filepath.Join(dir, "async.ckpt"), StopAfterRound: 3}
	if _, err := RunAsync(testEnv(65, n), asyncCfg, opts); !errors.Is(err, ErrStopped) {
		f.Fatalf("want ErrStopped, got %v", err)
	}
	runSpec := runCkptSpec(runCfg, (&ckptWireAlgo{}).Name(), n)
	asyncSpec := asyncCkptSpec(asyncCfg, opts.resolve(asyncCfg), n, dim)
	for _, path := range []string{runCfg.Checkpoint.Path, asyncCfg.Checkpoint.Path} {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	f.Add([]byte(nil))
	f.Add([]byte("not a checkpoint at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		inRange := func(what string, v, lo, hi int) {
			if v < lo || v >= hi {
				t.Fatalf("%s %d outside [%d,%d)", what, v, lo, hi)
			}
		}
		body := func(snap *snapshot, spec ckptSpec) {
			inRange("rounds done", snap.done, 0, spec.total+1)
			inRange("metric count", len(snap.metrics), 0, len(data)/metricBytes+1)
			// Every accepted stream either restores to exactly its saved
			// position or is refused — never a replay without end.
			for _, st := range snap.streams {
				if g, err := tensor.RestoreRNG(st); err == nil && g.State() != st {
					t.Fatalf("stream %+v restored at %+v", st, g.State())
				} else if err != nil && st.Pos <= 1<<34 {
					t.Fatalf("stream %+v refused: %v", st, err)
				}
			}
		}
		if snap, d, err := parseCheckpoint(data, runSpec); err == nil {
			body(snap, runSpec)
			if tail, err := parseRunTail(d, snap.done, runCfg.Rounds, n, runCfg.ClientsPerRound); err == nil {
				inRange("planner cursor", tail.next, snap.done, runCfg.Rounds+1)
				for r := snap.done; r < tail.next; r++ {
					inRange("cohort size", len(tail.drawn[r]), runCfg.ClientsPerRound, runCfg.ClientsPerRound+1)
					for _, id := range tail.drawn[r] {
						inRange("planned client", id, -1, n)
					}
				}
				inRange("algorithm blob", len(tail.blob), 0, len(data)+1)
			}
		}
		if snap, d, err := parseCheckpoint(data, asyncSpec); err == nil {
			body(snap, asyncSpec)
			if st, err := parseAsyncState(d, n, dim); err == nil {
				inRange("global size", len(st.global), dim, dim+1)
				for _, id := range st.available {
					inRange("available client", id, 0, n)
				}
				inRange("job count", len(st.inflight), 0, len(data)/minJobBytes+1)
				for _, j := range st.inflight {
					inRange("job client", j.client, 0, n)
					inRange("fetch size", len(j.fetch), dim, dim+1)
				}
			}
		}
	})
}
