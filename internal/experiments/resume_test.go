package experiments

import (
	"reflect"
	"testing"
)

// TestResumeCheckAllMatch: the crash/resume harness reports byte-identity
// for a representative algorithm pair under the default fault mix.
func TestResumeCheckAllMatch(t *testing.T) {
	o := DefaultResumeCheckOptions()
	o.Profile = microProfile()
	o.Model = "mlp"
	o.Algorithms = []string{"fedavg", "fedcross"}
	o.StopRounds = []int{2}
	res, err := RunResumeCheck(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("want 2 cells, got %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if !c.Match {
			t.Fatalf("%s stop %d diverged", c.Algorithm, c.StopRound)
		}
	}
}

// TestResumeStops pins the default kill-point policy.
func TestResumeStops(t *testing.T) {
	for _, tc := range []struct {
		rounds int
		want   []int
	}{
		{8, []int{1, 4, 7}},
		{3, []int{1, 2}},
		{2, []int{1}},
		{1, []int{1}},
	} {
		if got := resumeStops(tc.rounds); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("resumeStops(%d) = %v, want %v", tc.rounds, got, tc.want)
		}
	}
}
