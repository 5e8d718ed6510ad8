package experiments

import (
	"bytes"
	"testing"

	"fedcross/internal/data"
	"fedcross/internal/fl"
)

// FuzzAlgorithmState holds every algorithm's LoadState to the state
// codec's contract on arbitrary bytes: an error that leaves the algorithm
// exactly as it was, or an accepted blob that SaveState re-encodes byte
// for byte — never a panic. Seeds are each algorithm's state after a short
// run, its first half, and nil.
func FuzzAlgorithmState(f *testing.F) {
	p := microProfile()
	env, err := p.BuildEnv("vision10", "mlp", data.Heterogeneity{Beta: 0.5}, 1)
	if err != nil {
		f.Fatal(err)
	}
	names := AlgorithmNames()
	algos := make([]fl.RoundCheckpointer, len(names))
	saved := make([][]byte, len(names))
	save := func(tb testing.TB, i int) []byte {
		var buf bytes.Buffer
		if err := algos[i].SaveState(&buf); err != nil {
			tb.Fatalf("%s: %v", names[i], err)
		}
		return buf.Bytes()
	}
	for i, name := range names {
		algo, err := NewAlgorithm(name)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := fl.Run(algo, env, p.Config(1)); err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		algos[i] = algo.(fl.RoundCheckpointer)
		saved[i] = save(f, i)
		f.Add(saved[i])
		f.Add(saved[i][:len(saved[i])/2])
	}
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, blob []byte) {
		for i, name := range names {
			err := algos[i].LoadState(bytes.NewReader(blob))
			if got := save(t, i); err != nil && !bytes.Equal(got, saved[i]) {
				t.Fatalf("%s: refused state (%v) changed the algorithm", name, err)
			} else if err == nil && !bytes.Equal(got, blob) {
				t.Fatalf("%s: accepted %d bytes re-encode to %d different ones", name, len(blob), len(got))
			}
			if err == nil {
				saved[i] = bytes.Clone(blob)
			}
		}
	})
}
