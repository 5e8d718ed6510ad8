package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedcross/internal/data"
)

// renderable is what every grid result offers the determinism harness.
type renderable interface{ Render(w io.Writer) error }

// renderAtJobs runs a grid at the given Jobs setting and returns its
// rendered bytes — the strictest cheap equality check, since every
// accuracy in every cell lands in the output.
func renderAtJobs(t *testing.T, jobs int, run func(p Profile) (renderable, error)) []byte {
	t.Helper()
	p := microProfile()
	p.Jobs = jobs
	res, err := run(p)
	if err != nil {
		t.Fatalf("jobs=%d: %v", jobs, err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatalf("jobs=%d render: %v", jobs, err)
	}
	return buf.Bytes()
}

// TestSchedulerDeterminism pins the scheduler's core invariant: every
// preset produces byte-identical results at cell parallelism 1 and at a
// parallelism that forces concurrent cells, the grid-level twin of the
// round engine's parallelism invariance.
func TestSchedulerDeterminism(t *testing.T) {
	// The micro population is 6 clients: the presets that sweep K and N
	// past it are swept inside it.
	micro := map[string][][]string{
		"fig6": {{"k", "2", "3"}},
		"fig7": {{"n", "6", "12"}},
	}
	for _, name := range presetNames() {
		run := gridAt(t, name, micro[name]...)
		serial := renderAtJobs(t, 1, run)
		parallel := renderAtJobs(t, 8, run)
		if !bytes.Equal(serial, parallel) {
			t.Errorf("%s: jobs=8 output differs from jobs=1\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
				name, serial, parallel)
		}
	}
}

// TestEnvCacheLeases pins the memoization and ownership rules: one build
// per key, shared datasets, private structure per lease, and key
// separation across seeds and profile sizing.
func TestEnvCacheLeases(t *testing.T) {
	p := microProfile()
	c := NewEnvCache()
	het := data.Heterogeneity{Beta: 0.5}
	a, err := c.Lease(p, "vision10", "mlp", het, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Lease(p, "vision10", "mlp", het, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a.Fed == b.Fed {
		t.Fatal("leases must not share Env/Federated structure")
	}
	if a.Fed.Clients[0] != b.Fed.Clients[0] || a.Fed.Test != b.Fed.Test {
		t.Fatal("leases of one key must share the built datasets")
	}
	// Structural mutation of one lease must not leak into a sibling.
	b.Fed.Clients[0] = b.Fed.Clients[1]
	if a.Fed.Clients[0] == b.Fed.Clients[0] {
		t.Fatal("shard swap on one lease visible through another")
	}

	other, err := c.Lease(p, "vision10", "mlp", het, 2)
	if err != nil {
		t.Fatal(err)
	}
	if other.Fed.Test == a.Fed.Test {
		t.Fatal("different seeds must not share a build")
	}
	p2 := p
	p2.NumClients = p.NumClients + 1
	resized, err := c.Lease(p2, "vision10", "mlp", het, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resized.NumClients() != p2.NumClients {
		t.Fatalf("sizing change ignored: %d clients, want %d", resized.NumClients(), p2.NumClients)
	}

	// The cached build is bit-identical to a direct BuildEnv.
	direct, err := p.BuildEnv("vision10", "mlp", het, 1)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Fed.Test.Len() != a.Fed.Test.Len() {
		t.Fatalf("cached test set %d samples, direct %d", a.Fed.Test.Len(), direct.Fed.Test.Len())
	}
	for i, v := range direct.Fed.Test.X.Data {
		if a.Fed.Test.X.Data[i] != v {
			t.Fatalf("cached build differs from direct BuildEnv at sample byte %d", i)
		}
	}
}

// TestSchedulerJobsCapAndErrors pins the cell-level contract: at most
// Jobs cells in flight, and a failing cell aborts the grid with its
// error.
func TestSchedulerJobsCapAndErrors(t *testing.T) {
	p := microProfile()
	p.Jobs = 2
	s := newScheduler(p)
	var cur, peak atomic.Int64
	var mu sync.Mutex
	err := s.Run(8, func(i int) error {
		v := cur.Add(1)
		defer cur.Add(-1)
		mu.Lock()
		if v > peak.Load() {
			peak.Store(v)
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 2 {
		t.Fatalf("peak concurrent cells %d exceeds Jobs=2", peak.Load())
	}

	boom := errors.New("cell failed")
	err = s.Run(4, func(i int) error {
		if i == 1 {
			return fmt.Errorf("cell %d: %w", i, boom)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the failing cell's error", err)
	}
}
