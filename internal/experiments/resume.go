package experiments

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"

	"fedcross/internal/data"
	"fedcross/internal/fl"
)

// ResumeCheckOptions configures the crash/resume equality check: every
// algorithm is run to completion once, then killed at each stop round
// (checkpoint written, fl.ErrStopped returned) and resumed from the
// snapshot — the resumed history must equal the uninterrupted one
// byte-for-byte.
type ResumeCheckOptions struct {
	Profile Profile
	// Dataset / Model / Het choose the environment (vision10, cnn,
	// Dir(0.5) in DefaultResumeCheckOptions).
	Dataset, Model string
	Het            data.Heterogeneity
	// Algorithms are the methods checked (all six by default).
	Algorithms []string
	// StopRounds are the kill points (default 1, Rounds/2, Rounds-1,
	// clipped and deduplicated).
	StopRounds []int
	// Benign disables the default fault mix; by default the check runs
	// under 10% crash + 10% drop with a quorum floor, so it proves the
	// snapshot also captures the fault and retry telemetry mid-stream.
	Benign bool
}

// DefaultResumeCheckOptions returns the standard check.
func DefaultResumeCheckOptions() ResumeCheckOptions {
	return ResumeCheckOptions{
		Dataset:    "vision10",
		Model:      "cnn",
		Het:        data.Heterogeneity{Beta: 0.5},
		Algorithms: AlgorithmNames(),
	}
}

// ResumeCell is one (algorithm, stop round) verdict.
type ResumeCell struct {
	Algorithm string
	StopRound int
	Match     bool
}

// ResumeCheckResult holds the verdict grid, rows ordered by (algorithm,
// stop round).
type ResumeCheckResult struct {
	Title string
	Cells []ResumeCell
}

// resumeStops returns the default kill points for a run length.
func resumeStops(rounds int) []int {
	raw := []int{1, rounds / 2, rounds - 1}
	seen := map[int]bool{}
	stops := make([]int, 0, len(raw))
	for _, s := range raw {
		if s < 1 || s >= rounds || seen[s] {
			continue
		}
		seen[s] = true
		stops = append(stops, s)
	}
	if len(stops) == 0 {
		stops = []int{1}
	}
	return stops
}

// RunResumeCheck executes the crash/resume equality check. Each cell
// writes its snapshot to a private file under a temporary directory that
// is removed before returning. The returned result always covers every
// cell that ran; the error is non-nil if any resumed history diverged
// from its uninterrupted twin.
func RunResumeCheck(opts ResumeCheckOptions) (*ResumeCheckResult, error) {
	if len(opts.StopRounds) == 0 {
		opts.StopRounds = resumeStops(opts.Profile.Rounds)
	}
	for _, stop := range opts.StopRounds {
		if stop < 1 || stop >= opts.Profile.Rounds {
			return nil, fmt.Errorf("experiments: resume stop round %d outside [1, %d)",
				stop, opts.Profile.Rounds)
		}
	}
	p := opts.Profile
	// The check owns its checkpoint files; a caller-level -checkpoint
	// setting must not leak into the baseline or resumed runs.
	p.Checkpoint = fl.CheckpointOptions{}
	if !opts.Benign {
		p.Faults = fl.FaultOptions{CrashRate: 0.1, DropRate: 0.1}
		p.MinUploads = max(1, p.ClientsPerRound/2)
		p.Retries = 2
	}
	dir, err := os.MkdirTemp("", "fedsim-resume-")
	if err != nil {
		return nil, fmt.Errorf("experiments: resume workspace: %w", err)
	}
	defer os.RemoveAll(dir)
	seed := firstSeed(p)
	res := &ResumeCheckResult{
		Title: fmt.Sprintf("Resume equality — %s/%s, stops %v, faults=%v",
			opts.Dataset, opts.Model, opts.StopRounds, !opts.Benign),
		Cells: make([]ResumeCell, len(opts.Algorithms)*len(opts.StopRounds)),
	}
	s := newScheduler(p)
	// One scheduler cell per algorithm: the baseline run is shared by that
	// algorithm's stop rounds, so it is trained exactly once.
	err = s.Run(len(opts.Algorithms), func(ai int) error {
		name := opts.Algorithms[ai]
		env, err := s.Env(p, opts.Dataset, opts.Model, opts.Het, seed)
		if err != nil {
			return err
		}
		run := func(prof Profile) (*fl.History, error) {
			algo, err := NewAlgorithm(name)
			if err != nil {
				return nil, err
			}
			return fl.Run(algo, env, s.Config(prof, seed))
		}
		full, err := run(p)
		if err != nil {
			return fmt.Errorf("experiments: resume baseline %s: %w", name, err)
		}
		for si, stop := range opts.StopRounds {
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.ckpt", name, stop))
			killed := p
			killed.Checkpoint = fl.CheckpointOptions{Path: path, StopAfterRound: stop}
			if _, err := run(killed); !errors.Is(err, fl.ErrStopped) {
				return fmt.Errorf("experiments: resume kill %s@%d: want ErrStopped, got %v",
					name, stop, err)
			}
			resumed := p
			resumed.Checkpoint = fl.CheckpointOptions{Path: path, Resume: true}
			hist, err := run(resumed)
			if err != nil {
				return fmt.Errorf("experiments: resume continue %s@%d: %w", name, stop, err)
			}
			res.Cells[ai*len(opts.StopRounds)+si] = ResumeCell{
				Algorithm: name,
				StopRound: stop,
				Match:     reflect.DeepEqual(full, hist),
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var bad []string
	for _, c := range res.Cells {
		if !c.Match {
			bad = append(bad, fmt.Sprintf("%s@%d", c.Algorithm, c.StopRound))
		}
	}
	if len(bad) > 0 {
		return res, fmt.Errorf("experiments: resumed history diverged for %v", bad)
	}
	return res, nil
}

// Render writes the verdict table, one row per (algorithm, stop round).
func (r *ResumeCheckResult) Render(w io.Writer) error {
	t := Table{
		Title:  r.Title,
		Header: []string{"Algorithm", "Stop round", "Resumed history"},
	}
	for _, c := range r.Cells {
		verdict := "identical"
		if !c.Match {
			verdict = "DIVERGED"
		}
		t.Add(c.Algorithm, fmt.Sprintf("%d", c.StopRound), verdict)
	}
	_, err := t.WriteTo(w)
	return err
}
