package fl

import (
	"fmt"
	"testing"
)

// faultMix exercises every fault class at rates high enough that each
// fires within a short run.
func faultMix() FaultOptions {
	return FaultOptions{
		CrashRate: 0.3, DropRate: 0.3, TruncateRate: 0.25, CorruptRate: 0.25,
		DuplicateRate: 0.3, StraggleRate: 0.3, StallRate: 0.3,
	}
}

func TestFaultOptionsValidate(t *testing.T) {
	for _, bad := range []FaultOptions{
		{CrashRate: -0.1},
		{DropRate: 1.5},
		{TruncateRate: 2},
		{CorruptRate: -1},
		{DuplicateRate: 1.01},
		{StraggleRate: -0.5},
		{StallRate: 7},
		{StraggleFactor: 0.5}, // a speedup is not a straggler
		{StraggleFactor: -1},
		{StallSec: -2},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%+v should not validate", bad)
		}
	}
	if err := (FaultOptions{}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := faultMix().Validate(); err != nil {
		t.Fatal(err)
	}
	if (FaultOptions{StraggleFactor: 4, StallSec: 2}).Active() {
		t.Fatal("factor-only options must be inactive")
	}
}

// TestFaultPlanDeterministicAndPure: every decision is a pure function of
// (seed, round, id) — two plans with the same seed agree everywhere, and
// the nil plan injects nothing.
func TestFaultPlanDeterministicAndPure(t *testing.T) {
	a := NewFaultPlan(faultMix(), 42)
	b := NewFaultPlan(faultMix(), 42)
	var nilPlan *FaultPlan
	fired, clean := 0, 0
	for r := 0; r < 50; r++ {
		if a.Stalls(r) != b.Stalls(r) {
			t.Fatalf("stall decision diverged at round %d", r)
		}
		for id := 0; id < 20; id++ {
			decisions := [][2]bool{
				{a.Crashes(r, id), b.Crashes(r, id)},
				{a.Drops(r, id, 0), b.Drops(r, id, 0)},
				{a.Drops(r, id, 1), b.Drops(r, id, 1)},
				{a.Truncates(r, id, 0), b.Truncates(r, id, 0)},
				{a.Corrupts(r, id, 0), b.Corrupts(r, id, 0)},
				{a.Duplicates(r, id), b.Duplicates(r, id)},
				{a.Straggles(r, id), b.Straggles(r, id)},
			}
			for k, d := range decisions {
				if d[0] != d[1] {
					t.Fatalf("decision %d diverged at (%d,%d)", k, r, id)
				}
				if d[0] {
					fired++
				} else {
					clean++
				}
			}
			if nilPlan.Crashes(r, id) || nilPlan.Drops(r, id, 0) ||
				nilPlan.Duplicates(r, id) || nilPlan.Straggles(r, id) || nilPlan.Stalls(r) {
				t.Fatal("nil plan must inject nothing")
			}
		}
	}
	if fired == 0 || clean == 0 {
		t.Fatalf("degenerate plan: fired=%d clean=%d", fired, clean)
	}
	if NewFaultPlan(FaultOptions{}, 42).Active() {
		t.Fatal("inactive options must yield an inactive plan")
	}
}

// TestQuorumDegradationNeverHangs: with a quorum the cohort can rarely
// meet, rounds degrade (and are counted) instead of hanging or erroring.
func TestQuorumDegradationNeverHangs(t *testing.T) {
	cfg := Config{Rounds: 5, ClientsPerRound: 4, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Momentum: 0.5, EvalEvery: 1, Seed: 4,
		Faults:     FaultOptions{CrashRate: 0.9},
		MinUploads: 4,
	}
	h, err := Run(&wireAlgo{}, testEnv(53, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.Degraded == 0 {
		t.Fatalf("expected degraded rounds under a 90%% crash rate and a full quorum: %+v", h)
	}
	if h.Final().CumDegraded != h.Degraded {
		t.Fatalf("cum degraded %d != run total %d", h.Final().CumDegraded, h.Degraded)
	}
}

// TestHostileUploadBytesNeverPanic: with every upload truncated or
// corrupted in transit, every codec must surface the damage as a counted
// per-client dropout — the run completes, nothing panics, and with no
// accepted uploads the model just holds still.
func TestHostileUploadBytesNeverPanic(t *testing.T) {
	for _, codec := range []string{"identity", "fp16", "int8", "topk:0.25"} {
		for _, faults := range []FaultOptions{{TruncateRate: 1}, {CorruptRate: 1}} {
			name := fmt.Sprintf("%s/truncate=%v", codec, faults.TruncateRate == 1)
			t.Run(name, func(t *testing.T) {
				cfg := Config{Rounds: 3, ClientsPerRound: 3, LocalEpochs: 1, BatchSize: 16,
					LR: 0.05, Momentum: 0.5, EvalEvery: 1, Seed: 5,
					Faults:    faults,
					Transport: TransportOptions{Codec: codec, Retries: 1},
				}
				h, err := Run(&wireAlgo{}, testEnv(54, 6), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if h.FaultDrops != 3*3 {
					t.Fatalf("want all %d uploads counted as fault drops, got %d", 3*3, h.FaultDrops)
				}
				first, last := h.Metrics[0].TestAcc, h.Final().TestAcc
				if first != last {
					t.Fatalf("model moved with zero accepted uploads: %v -> %v", first, last)
				}
			})
		}
	}
}

func TestChurnOptionsValidate(t *testing.T) {
	for _, bad := range []ChurnOptions{
		{Availability: -0.1},
		{Availability: 1.5},
		{PeriodRounds: -1},
		{Jitter: -0.2},
		{Jitter: 2},
		{StartFrac: -1},
		{EndFrac: 1.2},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%+v should not validate", bad)
		}
	}
	if err := (ChurnOptions{}).Validate(); err != nil {
		t.Fatal(err)
	}
	if (ChurnOptions{Availability: 1, StartFrac: 1, EndFrac: 1}).Active() {
		t.Fatal("full availability and a flat ramp must be inactive")
	}
}

// TestChurnPlanPureAndRamped: availability is a pure function of (seed,
// round, id), the population ramp hits its endpoints, and departed ids
// are offline by definition.
func TestChurnPlanPureAndRamped(t *testing.T) {
	opts := ChurnOptions{Availability: 0.5, Jitter: 0.3, StartFrac: 1, EndFrac: 0.5}
	const n, rounds = 100, 10
	a := NewChurnPlan(opts, 7, n, rounds)
	b := NewChurnPlan(opts, 7, n, rounds)
	online, offline := 0, 0
	for r := 0; r < rounds; r++ {
		for id := 0; id < n; id++ {
			av := a.Available(r, id)
			if av != b.Available(r, id) {
				t.Fatalf("availability diverged at (%d,%d)", r, id)
			}
			if av {
				online++
			} else {
				offline++
			}
			if id >= a.PopN(r) && av {
				t.Fatalf("departed client %d online at round %d", id, r)
			}
		}
	}
	if online == 0 || offline == 0 {
		t.Fatalf("degenerate trace: online=%d offline=%d", online, offline)
	}
	if got := a.PopN(0); got != n {
		t.Fatalf("PopN(0) = %d, want %d", got, n)
	}
	if got := a.PopN(rounds - 1); got != n/2 {
		t.Fatalf("PopN(last) = %d, want %d", got, n/2)
	}
	var nilPlan *ChurnPlan
	if !nilPlan.Available(3, 5) {
		t.Fatal("nil plan must keep everyone online")
	}
	if NewChurnPlan(ChurnOptions{}, 7, n, rounds) != nil {
		t.Fatal("inactive churn must yield a nil plan")
	}
}
