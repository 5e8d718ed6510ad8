package main

import (
	"bytes"
	"flag"
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
	return append([]string{"-profile", "tiny", "-rounds", "2", "-clients", "6", "-grid", "model=mlp"}, args...)
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
		{"bad alpha", []string{"-experiment", "table3", "-grid", "alpha=0.5,x"}, `bad number "x"`},
		{"alpha out of range", []string{"-experiment", "fig8", "-grid", "alpha=0.3"}, "[0.5, 1)"},
		{"bad strategy", []string{"-experiment", "table3", "-grid", "strategy=random"}, "unknown selection strategy"},
		{"bad accel", []string{"-experiment", "fig9", "-grid", "accel=turbo"}, "unknown acceleration"},
		{"k above n", []string{"-experiment", "fig6", "-grid", "k=2,7"}, "N=6"},
		{"bad stop", []string{"-experiment", "resume", "-grid", "stop=0"}, "positive integer"},
		{"bad beta", []string{"-experiment", "table2", "-grid", "beta=0.5,noniid"}, "bad beta"},
		{"bad algo", []string{"-experiment", "table2", "-grid", "algo=fedsgd"}, "unknown algorithm"},
		{"unknown experiment", []string{"-experiment", "table9"}, `unknown experiment "table9"`},
	} {
		out, err := fedsim(t, micro(tc.args...)...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
		if strings.Contains(out, "Final acc") || strings.Contains(out, "0.") {
			t.Errorf("%s: a run started before the error:\n%s", tc.name, out)
		}
	}
}

// TestGridAxisNotRead: a swept value the experiment does not use — an
// axis it does not read, a second model where it runs one, -seeds where
// nothing reports over seeds, -clients / -k / -rounds where an axis sets
// them — is a usage error naming what it does read, never accepted and ignored.
func TestGridAxisNotRead(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-experiment", "robust", "-grid", "level=0,0.1"}, []string{"level", "robust", "frac, model, reducer"}},
		{[]string{"-experiment", "table1", "-grid", "codec=int8"}, []string{"codec", "table1"}},
		{[]string{"-experiment", "fig6", "-grid", "beta=0.5"}, []string{"beta", "it reads: algo, k, model"}},
		{[]string{"-experiment", "all", "-grid", "stop=2"}, []string{"stop", "all"}},
		{[]string{"-experiment", "comm", "-grid", "colour=red"}, []string{"colour", "codec, model"}},
		{[]string{"-experiment", "ablations", "-grid", "alpha=0.5"}, []string{"alpha", "model, propellers, shuffle, similarity"}},
		{[]string{"-experiment", "fig6", "-grid", "model=mlp,cnn"}, []string{"model=mlp,cnn", "fig6", "one model"}},
		{[]string{"-experiment", "comm", "-grid", "model=mlp,cnn"}, []string{"model=mlp,cnn", "comm", "one model"}},
		{[]string{"-experiment", "resume", "-grid", "model=mlp,cnn"}, []string{"resume", "one model"}},
		{[]string{"-experiment", "faults", "-seeds", "3"}, []string{"-seeds", "faults", "level, model"}},
		{[]string{"-experiment", "fig5", "-seeds", "2"}, []string{"-seeds", "fig5"}},
		{[]string{"-experiment", "fig7", "-clients", "50"}, []string{"-clients", "fig7", "algo, model, n"}},
		{[]string{"-experiment", "fig7", "-k", "2"}, []string{"-k", "fig7"}},
		{[]string{"-experiment", "fig6", "-k", "2"}, []string{"-k", "fig6"}},
		{[]string{"-experiment", "table3", "-rounds", "2", "-grid", "rounds=1,2"}, []string{"-rounds:", "table3", "alpha, model, rounds, strategy"}},
		{[]string{"-experiment", "fig8", "-grid", "rounds=1,2"}, []string{"-grid rounds", "fig8", "alpha, model, strategy"}},
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

// TestGridAxesRead: the paper presets sweep what the paper sweeps, from
// the command line. Each case names pieces its output must contain.
func TestGridAxesRead(t *testing.T) {
	tiny := []string{"-profile", "tiny", "-rounds", "2"}
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{micro("-experiment", "fig6", "-grid", "algo=fedavg", "-grid", "k=2"), []string{"K  fedavg\n", "\n2  0."}},
		{micro("-experiment", "fig6", "-grid", "k=2,3"), []string{"K  fedavg  fedcross", "\n2  0.", "\n3  0."}},
		{append(tiny, "-experiment", "fig7", "-grid", "model=mlp", "-grid", "n=6,12"), []string{"\n6   0.", "\n12  0."}},
		{micro("-experiment", "table3", "-grid", "strategy=in-order", "-grid", "alpha=0.5"), []string{"Alpha      in-order", "\nalpha=0.5  "}},
		{micro("-experiment", "fig9", "-grid", "accel=vanilla,pm"), []string{"round  vanilla  pm"}},
		{[]string{"-profile", "tiny", "-clients", "6", "-grid", "model=mlp", "-experiment", "table3", "-grid", "rounds=1,2", "-grid", "strategy=in-order", "-grid", "alpha=0.5"},
			[]string{"Rounds  Alpha      in-order", "\n1       alpha=0.5  ", "\n2       alpha=0.5  "}},
		{append(tiny, "-experiment", "table2", "-clients", "6", "-seeds", "2", "-grid", "model=mlp,cnn", "-grid", "algo=fedavg", "-grid", "beta=iid"), []string{"\nvision10  mlp ", "\nvision10  cnn "}},
	} {
		out, err := fedsim(t, tc.args...)
		if err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("%v: output lacks %q:\n%s", tc.args, w, out)
			}
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
	out, err := fedsim(t, micro("-experiment", "async", "-k", "3", "-grid", "buffer=2")...)
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

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestPaperGoldens pins five paper presets' whole outputs, byte for byte,
// at micro scale over two seeds. After a change that is meant to move
// them: go test ./cmd/fedsim -run TestPaperGoldens -update.
func TestPaperGoldens(t *testing.T) {
	for name, args := range map[string][]string{
		"table2":    micro("-seeds", "2", "-grid", "dataset=vision10,sent140"),
		"table3":    micro("-seeds", "2", "-grid", "alpha=0.5,0.99"),
		"fig6":      micro("-grid", "k=2,3"),
		"fig8":      micro("-grid", "alpha=0.5,0.9"),
		"ablations": micro("-seeds", "2"),
	} {
		got, err := fedsim(t, append(args, "-experiment", name)...)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		path := filepath.Join("testdata", name+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s output changed:\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
		}
	}
}

// TestProfileFlags: -cpuprofile and -memprofile write two non-empty files
// and change nothing on stdout — the fig6 preset still prints its golden —
// and a path that cannot be created is an error before anything runs.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	got, err := fedsim(t, micro("-grid", "k=2,3", "-experiment", "fig6", "-cpuprofile", cpu, "-memprofile", mem)...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "fig6.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("fig6 output changed under the profile flags:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	for _, path := range []string{cpu, mem} {
		if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", filepath.Base(path), err)
		}
	}
	// The profiles end on error paths too: a usage error after they
	// started still leaves both files closed and written.
	cpu2, mem2 := filepath.Join(dir, "cpu2.prof"), filepath.Join(dir, "mem2.prof")
	if _, err := fedsim(t, "-experiment", "nope", "-cpuprofile", cpu2, "-memprofile", mem2); err == nil {
		t.Error("unknown experiment accepted")
	}
	for _, path := range []string{cpu2, mem2} {
		if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Errorf("%s after a usage error: missing or empty (%v)", filepath.Base(path), err)
		}
	}
	if _, err := fedsim(t, "-experiment", "table1", "-cpuprofile", filepath.Join(dir, "no", "such", "dir.prof")); err == nil || !strings.Contains(err.Error(), "-cpuprofile") {
		t.Errorf("unwritable -cpuprofile: error %v, want one naming the flag", err)
	}
}
