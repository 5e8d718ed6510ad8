package core

import (
	"testing"

	"fedcross/internal/data"
	"fedcross/internal/fl"
)

// TestFedCrossQuorumDegradedRound: below-quorum rounds leave the
// middleware list untouched and the run never hangs or leaks.
func TestFedCrossQuorumDegradedRound(t *testing.T) {
	cfg := runCfg(5)
	cfg.EvalEvery = 1
	cfg.Faults = fl.FaultOptions{CrashRate: 0.9}
	cfg.MinUploads = 4
	hist, err := fl.Run(MustNew(DefaultOptions()), integrationEnv(2, 8, data.Heterogeneity{Beta: 0.5}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Degraded == 0 {
		t.Fatal("90% crash rate against a quorum of 4 must degrade at least one round")
	}
	for i := 1; i < len(hist.Metrics); i++ {
		prev, cur := hist.Metrics[i-1], hist.Metrics[i]
		if cur.CumDegraded > prev.CumDegraded && cur.TestAcc != prev.TestAcc {
			t.Fatalf("round %d degraded but accuracy moved %v -> %v", cur.Round, prev.TestAcc, cur.TestAcc)
		}
	}
}
