package tensor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// denseSample is SampleV2 written out over a full n-slot array and
// math/rand's own Rand: step i swaps slot i with i + Intn(n−i). It
// returns the whole shuffle order of the steps it ran, for steps
// draws.
func denseSample(r *rand.Rand, n, steps int) []int {
	a := make([]int, n)
	for i := range a {
		a[i] = i
	}
	for i := 0; i < steps; i++ {
		j := i + r.Intn(n-i)
		a[i], a[j] = a[j], a[i]
	}
	return a[:steps]
}

func TestSampleV2(t *testing.T) {
	every := func(m int) func(int) bool { return func(id int) bool { return id%m == 0 } }
	for _, c := range []struct {
		n, k  int
		keep  func(int) bool
		keeps string // names keep in the subtest's name
	}{
		{0, 0, nil, ""},
		{1, 1, nil, ""},
		{7, 3, nil, ""},
		{7, 7, nil, ""},
		{7, 12, nil, ""}, // k > n clamps
		{1000, 0, nil, ""},
		{1 << 16, 1000, nil, ""}, // a power-of-two bound on the first draw
		{100_000, 1000, nil, ""},
		{1_000_000, 1000, nil, ""},
		{40, 6, every(3), "id%3==0"},
		{40, 20, every(3), "id%3==0"},         // 14 kept: pads −1 after all 40 draws
		{10_000, 3000, every(10), "id%10==0"}, // grows the table past k entries
		{50, 10, func(int) bool { return false }, "none"},
		{50, 80, every(1), "all"},
	} {
		name := fmt.Sprintf("n%d/k%d", c.n, c.k)
		if c.keep != nil {
			name += "/keep " + c.keeps
		}
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{1, 2, -9} {
				g := NewRNG(seed)
				got := g.SampleV2(c.n, c.k, c.keep)
				want := min(c.k, c.n)
				if len(got) != want {
					t.Fatalf("seed %d: %d ids, want min(k, n) = %d", seed, len(got), want)
				}
				seen := map[int]bool{}
				pad := 0
				for _, id := range got {
					if id == -1 && c.keep != nil {
						pad++
						continue
					}
					if pad > 0 || id < 0 || id >= c.n || seen[id] || (c.keep != nil && !c.keep(id)) {
						t.Fatalf("seed %d: id %d is out of range, repeated, not kept or after padding in %v", seed, id, got)
					}
					seen[id] = true
				}

				// The oracle: the same swaps over a dense array and
				// math/rand's own source. Without keep it runs k steps;
				// with keep it runs all n, and the sample must be the first
				// k kept ids of that order, drawn after the last one.
				ref, src := mathRand(seed)
				steps := want
				if c.keep != nil {
					steps = c.n
				}
				order := denseSample(ref, c.n, steps)
				if c.keep == nil {
					if !slices.Equal(got, order) {
						t.Fatalf("seed %d: ids differ from the dense shuffle's first %d", seed, want)
					}
					if p := g.State().Pos; p != src.n {
						t.Fatalf("seed %d: position %d, want the %d draws of its %d Intn calls", seed, p, src.n, want)
					}
				} else {
					var kept []int
					drawn := 0
					for i, id := range order {
						if len(kept) == want {
							break
						}
						if c.keep(id) {
							kept = append(kept, id)
						}
						drawn = i + 1
					}
					if !slices.Equal(got[:len(got)-pad], kept) || pad != want-len(kept) {
						t.Fatalf("seed %d: %v, want the first kept ids %v then %d × −1", seed, got, kept, want-len(kept))
					}
					ref, src = mathRand(seed)
					denseSample(ref, c.n, drawn)
					if p := g.State().Pos; p != src.n {
						t.Fatalf("seed %d: position %d, want the %d draws of %d Intn calls", seed, p, src.n, drawn)
					}
				}
				if next := g.Int63(); next != ref.Int63() {
					t.Fatalf("seed %d: next draw after the sample differs from math/rand's", seed)
				}
			}
		})
	}

	t.Run("uniform/n5/k3", func(t *testing.T) {
		// All 60 ordered triples, each about equally often: Pearson's
		// chi-square over 60,000 samples against its 59-degree-of-freedom
		// 0.9999 quantile (≈ 108.3; the mean is 59).
		const samples = 60_000
		g := NewRNG(17)
		counts := map[[3]int]int{}
		for s := 0; s < samples; s++ {
			ids := g.SampleV2(5, 3, nil)
			counts[[3]int(ids)]++
		}
		if len(counts) != 60 {
			t.Fatalf("%d distinct ordered triples, want all 60", len(counts))
		}
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c) - samples/60
			chi2 += d * d / (samples / 60)
		}
		if chi2 > 108.3 {
			t.Fatalf("chi-square %.1f over 59 degrees of freedom exceeds 108.3", chi2)
		}
	})

	t.Run("negative-k-panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("SampleV2(5, -1) must panic")
			}
		}()
		NewRNG(1).SampleV2(5, -1, nil)
	})
}
