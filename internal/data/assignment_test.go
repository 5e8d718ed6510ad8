package data

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"fedcross/internal/tensor"
)

// TestAssignDirichletSplitInvariant holds AssignDirichlet at GOMAXPROCS
// 2 and 3 — its Dirichlet draws split over that many parts — to the
// assignment at GOMAXPROCS 1, every draw serial: a deep-equal Assignment
// and the same stream position after it, at N = 10^5 and 10^6 (10^5
// alone under the race detector, which makes a 10^6 build take seconds).
func TestAssignDirichletSplitInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	labels := classMajorLabels(10, 1000)
	sizes := []int{100_000, 1_000_000}
	if raceEnabled {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		runtime.GOMAXPROCS(1)
		rng := tensor.NewRNG(int64(n))
		want := AssignDirichlet(labels, 10, n, 0.5, rng)
		wantState := rng.State()
		for _, procs := range []int{2, 3} {
			runtime.GOMAXPROCS(procs)
			rng := tensor.NewRNG(int64(n))
			got := AssignDirichlet(labels, 10, n, 0.5, rng)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("N %d at GOMAXPROCS %d: the assignment differs from the serial draws'", n, procs)
			}
			if rng.State() != wantState {
				t.Fatalf("N %d at GOMAXPROCS %d: stream at %+v after the assignment, serial at %+v", n, procs, rng.State(), wantState)
			}
		}
	}
}

// BenchmarkAssignDirichlet times the Dir(0.5) assignment of
// lazy_1m_fedavg's corpus (10 classes of 1,000 rows) to 10^6 clients at
// GOMAXPROCS 1, every Dirichlet draw serial, and at the machine's
// GOMAXPROCS, each split over that many parts.
func BenchmarkAssignDirichlet(b *testing.B) {
	labels := classMajorLabels(10, 1000)
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		name := "serial"
		if procs > 1 {
			name = fmt.Sprintf("split-%d", procs)
		}
		b.Run(name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i := range b.N {
				AssignDirichlet(labels, 10, 1_000_000, 0.5, tensor.NewRNG(int64(i)))
			}
		})
	}
}
