package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fedsim runs the command in-process and returns its stdout without the
// peak-RSS line (the one line that varies between identical runs).
func fedsim(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	var kept []string
	for _, line := range strings.SplitAfter(out.String(), "\n") {
		if !strings.HasPrefix(line, "peak RSS:") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, ""), err
}

// micro prefixes args with flags that shrink a tiny-profile run to what a
// flag test needs.
func micro(args ...string) []string {
	return append([]string{"-profile", "tiny", "-rounds", "2", "-clients", "6", "-k", "3", "-grid", "model=mlp"}, args...)
}

func TestGridGrammarErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no equals", []string{"-experiment", "faults", "-grid", "level"}, "axis=v1,v2"},
		{"empty list", []string{"-experiment", "faults", "-grid", "level="}, "no values"},
		{"repeated axis", []string{"-experiment", "faults", "-grid", "level=0", "-grid", "level=0.1"}, "named twice"},
		{"bad level", []string{"-experiment", "faults", "-grid", "level=0,lots"}, `bad number "lots"`},
		{"bad buffer", []string{"-experiment", "async", "-grid", "buffer=-1"}, "positive integer"},
		{"bad alpha", []string{"-experiment", "table3", "-grid", "alpha=0.5,x"}, `bad float "x"`},
		{"bad stop", []string{"-experiment", "resume", "-grid", "stop=0"}, "positive integer"},
		{"bad beta", []string{"-experiment", "table2", "-grid", "beta=0.5,noniid"}, "bad beta"},
		{"bad algo", []string{"-experiment", "table2", "-grid", "algo=fedsgd"}, "unknown algorithm"},
		{"unknown experiment", []string{"-experiment", "table9"}, `unknown experiment "table9"`},
	} {
		out, err := fedsim(t, micro(tc.args...)...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
		if strings.Contains(out, "Final acc") {
			t.Errorf("%s: a run started before the error:\n%s", tc.name, out)
		}
	}
}

// TestGridAxisNotRead: an axis the experiment does not read is a usage
// error naming the ones it does — never accepted and ignored.
func TestGridAxisNotRead(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-experiment", "robust", "-grid", "level=0,0.1"}, []string{"level", "robust", "frac, model, reducer"}},
		{[]string{"-experiment", "table1", "-grid", "codec=int8"}, []string{"codec", "table1"}},
		{[]string{"-experiment", "fig6", "-grid", "algo=fedavg"}, []string{"algo", "it reads: model"}},
		{[]string{"-experiment", "all", "-grid", "stop=2"}, []string{"stop", "all"}},
		{[]string{"-experiment", "comm", "-grid", "colour=red"}, []string{"colour", "codec, model"}},
	} {
		out, err := fedsim(t, tc.args...)
		if err == nil {
			t.Errorf("%v: accepted", tc.args)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%v: error %q does not mention %q", tc.args, err, w)
			}
		}
		if out != "" {
			t.Errorf("%v: printed before failing:\n%s", tc.args, out)
		}
	}
}

// TestGridBetaAndAlgo: beta=0.1,iid is two heterogeneity settings, and a
// one-algorithm table2 is a single cell, so -checkpoint/-stopafter/-resume
// kill and continue it to the uninterrupted run's output.
func TestGridBetaAndAlgo(t *testing.T) {
	args := micro("-experiment", "table2", "-grid", "algo=fedavg")
	out, err := fedsim(t, append(args, "-grid", "beta=0.1,iid")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "beta=0.1") || !strings.Contains(out, "IID") || strings.Contains(out, "beta=0.5") {
		t.Fatalf("beta=0.1,iid should run exactly those two settings:\n%s", out)
	}

	args = append(args, "-grid", "beta=0.5")
	full, err := fedsim(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	killed, err := fedsim(t, append(args, "-checkpoint", ckpt, "-stopafter", "1")...)
	if err != nil || !strings.Contains(killed, "run stopped at round 1") {
		t.Fatalf("kill run: err %v, output:\n%s", err, killed)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}
	resumed, err := fedsim(t, append(args, "-checkpoint", ckpt, "-resume")...)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != full {
		t.Fatalf("resumed run differs from the uninterrupted one:\n--- full ---\n%s\n--- resumed ---\n%s", full, resumed)
	}
}

// TestGridOverridesPreset: -grid replaces a preset axis's values and
// leaves the axes it does not name at their defaults.
func TestGridOverridesPreset(t *testing.T) {
	out, err := fedsim(t, micro("-experiment", "async", "-grid", "buffer=2")...)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 6 && f[0] == "2" {
			rows = append(rows, f[1])
		}
	}
	if strings.Join(rows, ",") != "3,6" { // inflight defaults to K, 2K
		t.Fatalf("buffer=2 should give rows for in-flight 3 and 6, got %v:\n%s", rows, out)
	}
}

func TestTable1Unchanged(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "table1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := fedsim(t, "-profile", "tiny", "-experiment", "table1")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("table1 output changed:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}
