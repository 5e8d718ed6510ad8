package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"fedcross/internal/experiments"
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
	return append([]string{"-profile", "tiny", "-set", "rounds=2", "-set", "n=6", "-set", "model=mlp"}, args...)
}

func TestGridGrammarErrors(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no equals", []string{"-experiment", "faults", "-grid", "level"}, "want key=value"},
		{"empty list", []string{"-experiment", "faults", "-grid", "level="}, "want key=value"},
		{"empty value", []string{"-experiment", "faults", "-grid", "level=0,,0.1"}, `bad number ""`},
		{"repeated axis", []string{"-experiment", "faults", "-grid", "level=0", "-grid", "level=0.1"}, "named twice"},
		{"bad level", []string{"-experiment", "faults", "-grid", "level=0,lots"}, `bad number "lots"`},
		{"bad buffer", []string{"-experiment", "async", "-grid", "buffer=-1"}, "positive integer"},
		{"bad alpha", []string{"-experiment", "table3", "-grid", "alpha=0.5,x"}, `bad number "x"`},
		{"alpha out of range", []string{"-experiment", "fig8", "-grid", "alpha=0.3"}, "[0.5, 1)"},
		{"bad strategy", []string{"-experiment", "table3", "-grid", "strategy=random"}, "unknown selection strategy"},
		{"bad accel", []string{"-experiment", "fig9", "-grid", "accel=turbo"}, "unknown acceleration"},
		{"k above n", []string{"-experiment", "fig6", "-grid", "k=2,7"}, "N=6"},
		{"bad beta", []string{"-experiment", "table2", "-grid", "beta=0.5,noniid"}, "bad beta"},
		{"NaN beta", []string{"-experiment", "table2", "-set", "beta=NaN"}, `bad beta "NaN"`},
		{"infinite beta", []string{"-experiment", "table2", "-grid", "beta=0.5,+Inf"}, `bad beta "+Inf"`},
		{"bad algo", []string{"-experiment", "table2", "-grid", "algo=fedsgd"}, "unknown algorithm"},
		{"unknown experiment", []string{"-experiment", "table9"}, `unknown experiment "table9"`},
		{"set without equals", []string{"-experiment", "faults", "-set", "quorum"}, "want key=value"},
		{"set without value", []string{"-experiment", "faults", "-set", "quorum="}, "want key=value"},
		{"key set twice", []string{"-experiment", "faults", "-set", "rounds=3"}, `key "rounds" named twice`},
		{"bad fault spec", []string{"-experiment", "faults", "-set", "faults=boom=1"}, "crash, drop"},
		{"bad fault rate", []string{"-experiment", "faults", "-set", "faults=drop=2"}, "DropRate"},
		{"bad churn period", []string{"-experiment", "churn", "-set", "churn=period=1.5"}, "whole number"},
		{"bad codec", []string{"-experiment", "table2", "-set", "codec=zip"}, "zip"},
		{"bad net", []string{"-experiment", "table2", "-set", "net=carrier-pigeon"}, "carrier-pigeon"},
		{"negative retries", []string{"-experiment", "faults", "-set", "retries=-1"}, "non-negative integer"},
		{"k above n on a base cell", []string{"-experiment", "table2", "-set", "k=7"}, "N=6"},
		{"attack fraction", []string{"-experiment", "table2", "-set", "attack=signflip", "-set", "frac=1"}, "fraction"},
		{"NaN attack fraction", []string{"-experiment", "table2", "-set", "attack=signflip", "-set", "frac=NaN"}, "attack fraction NaN"},
		{"NaN alpha", []string{"-experiment", "fig5", "-set", "alpha=NaN"}, "alpha NaN"},
		{"NaN trimmed fraction", []string{"-experiment", "table2", "-set", "reducer=trimmed:NaN"}, "trimmed fraction NaN"},
		{"trailing junk in a trimmed fraction", []string{"-experiment", "table2", "-set", "reducer=trimmed:0.2junk"}, "bad trimmed fraction"},
		{"positional argument", []string{"-experiment", "table2", "table3"}, `unexpected argument "table3"`},
		// The quorum is checked against every cell's K, not the profile's.
		{"quorum above a swept K", []string{"-experiment", "fig6", "-grid", "k=2,3", "-set", "quorum=3"}, "MinUploads = 3, must be in [0, ClientsPerRound = 2]"},
		// A checkpoint holds one run; every run of a larger plan would write it.
		{"checkpoint on many runs", []string{"-experiment", "fig6", "-grid", "k=2,3", "-checkpoint", ckpt}, "fig6 makes 4"},
		{"checkpoint on two betas", []string{"-experiment", "table2", "-grid", "algo=fedcross", "-checkpoint", ckpt}, "table2 makes 2"},
		{"checkpoint on two seeds", []string{"-experiment", "table2", "-grid", "algo=fedcross", "-grid", "beta=0.5", "-seeds", "2", "-checkpoint", ckpt}, "table2 makes 2"},
		{"checkpoint on a reference run", []string{"-experiment", "fig8", "-grid", "alpha=0.5", "-grid", "strategy=in-order", "-checkpoint", ckpt}, "fig8 makes 2"},
		{"checkpoint on no run", []string{"-experiment", "table1", "-checkpoint", ckpt}, "table1 makes 0"},
	} {
		out, err := fedsim(t, micro(tc.args...)...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
		if out != "" {
			t.Errorf("%s: printed before failing:\n%s", tc.name, out)
		}
	}
}

// TestGridAxisNotRead: a value the experiment does not use — an axis it
// does not sweep, a key it does not read, -seeds where nothing reports
// over seeds, a key both set and swept — is a usage error naming what it
// does read, never accepted and ignored.
func TestGridAxisNotRead(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-experiment", "robust", "-grid", "level=0,0.1"}, []string{"-grid level=0,0.1", "robust sweeps frac, reducer", "-set level=<value>"}},
		{[]string{"-experiment", "table1", "-grid", "codec=int8"}, []string{"codec", "table1 sweeps nothing"}},
		{[]string{"-experiment", "fig6", "-grid", "beta=0.5"}, []string{"fig6 sweeps algo, k, rounds, not beta", "-set beta=0.5"}},
		{[]string{"-experiment", "all", "-grid", "stop=2"}, []string{"stop", "all"}},
		{[]string{"-experiment", "comm", "-grid", "colour=red"}, []string{"colour", "comm sweeps codec"}},
		{[]string{"-experiment", "ablations", "-grid", "alpha=0.5"}, []string{"alpha", "propellers, shuffle, similarity", "-set alpha=0.5"}},
		{[]string{"-experiment", "fig6", "-grid", "model=mlp,cnn"}, []string{"model=mlp,cnn", "fig6", "-set model=<value>"}},
		{[]string{"-experiment", "comm", "-grid", "model=mlp"}, []string{"model=mlp", "comm", "-set model=mlp"}},
		{[]string{"-experiment", "faults", "-seeds", "3"}, []string{"-seeds", "faults", "level"}},
		{[]string{"-experiment", "fig5", "-seeds", "2"}, []string{"-seeds", "fig5"}},
		{[]string{"-experiment", "fig3", "-seeds", "2"}, []string{"-seeds", "fig3", "it reads: beta, n)"}},
		{[]string{"-experiment", "fig3", "-grid", "n=6,12"}, []string{"-grid n=6,12", "fig3 sweeps beta", "-set n=<value>"}},
		{[]string{"-experiment", "fig8", "-grid", "rounds=1,2"}, []string{"-grid rounds", "fig8 sweeps alpha, strategy", "-set rounds"}},
		{[]string{"-experiment", "table1", "-set", "codec=int8"}, []string{"-set codec", "table1", "it reads: k)"}},
		{[]string{"-experiment", "table1", "-set", "codec=int8", "-set", "quorum=3", "-set", "staleexp=0.9"}, []string{"-set codec, -set quorum, -set staleexp", "table1"}},
		{[]string{"-experiment", "table2", "-set", "staleexp=0.9"}, []string{"-set staleexp", "table2"}},
		{[]string{"-experiment", "table2", "-set", "buffer=2"}, []string{"-set buffer", "table2"}},
		{[]string{"-experiment", "async", "-set", "algo=fedcross"}, []string{"-set algo", "async"}},
		{[]string{"-experiment", "robust", "-set", "alpha=0.9"}, []string{"-set alpha", "robust"}},
		{[]string{"-experiment", "fig7", "-set", "k=2"}, []string{"-set k", "fig7"}},
		{[]string{"-experiment", "fig7", "-grid", "k=2"}, []string{"-grid k=2", "fig7"}},
		{[]string{"-experiment", "comm", "-set", "colour=red"}, []string{"-set colour", "comm"}},
		{[]string{"-experiment", "fig6", "-set", "k=3", "-grid", "k=2,3"}, []string{"-set k and -grid k", "not both"}},
		{[]string{"-experiment", "table3", "-set", "rounds=2", "-grid", "rounds=1,2"}, []string{"-set rounds and -grid rounds"}},
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
	tiny := []string{"-profile", "tiny", "-set", "rounds=2"}
	fig6k2, err := fedsim(t, micro("-experiment", "fig6", "-grid", "k=2")...)
	if err != nil {
		t.Fatal(err)
	}
	nk, err := fedsim(t, micro("-experiment", "comm", "-grid", "codec=identity", "-set", "k=3")...)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{micro("-experiment", "fig6", "-grid", "algo=fedavg", "-grid", "k=2"), []string{"K  fedavg\n", "\n2  0."}},
		{micro("-experiment", "fig6", "-grid", "k=2,3"), []string{"K  fedavg  fedcross", "\n2  0.", "\n3  0."}},
		// -set on a swept axis is the one-value sweep.
		{micro("-experiment", "fig6", "-set", "k=2"), []string{fig6k2}},
		// Keys apply in the table's order, whatever the command line's.
		{[]string{"-profile", "tiny", "-set", "rounds=2", "-set", "model=mlp", "-experiment", "comm", "-grid", "codec=identity", "-set", "k=3", "-set", "n=6"}, []string{nk}},
		{append(tiny, "-experiment", "fig7", "-set", "model=mlp", "-grid", "n=6,12"), []string{"\n6   0.", "\n12  0."}},
		{micro("-experiment", "table3", "-grid", "strategy=in-order", "-grid", "alpha=0.5"), []string{"Alpha      in-order", "\nalpha=0.5  "}},
		{micro("-experiment", "fig9", "-grid", "accel=vanilla,pm"), []string{"round  vanilla  pm"}},
		{[]string{"-profile", "tiny", "-set", "n=6", "-set", "model=mlp", "-experiment", "table3", "-grid", "rounds=1,2", "-grid", "strategy=in-order", "-grid", "alpha=0.5"},
			[]string{"Rounds  Alpha      in-order", "\n1       alpha=0.5  ", "\n2       alpha=0.5  "}},
		{append(tiny, "-experiment", "table2", "-set", "n=6", "-seeds", "2", "-grid", "model=mlp,cnn", "-grid", "algo=fedavg", "-grid", "beta=iid"), []string{"\nvision10  mlp ", "\nvision10  cnn "}},
		{micro("-experiment", "fidelity", "-grid", "beta=0.5", "-set", "codec=int8"), []string{"FedCross − FedAvg (pts)", "\nbeta=0.5  "}},
		// fig4 reports over seeds: the margin's wins count both.
		{micro("-experiment", "fig4", "-seeds", "2", "-grid", "beta=iid"), []string{"on vision10/mlp", "FedCross flatter", "/2 seeds", "\n# IID: loss around seed 1's final models\n"}},
		{[]string{"-set", "n=6", "-experiment", "fig3", "-grid", "beta=0.1,iid"}, []string{"Dir(beta=0.1), skew=", "distribution, IID, skew="}},
		{micro("-experiment", "faults", "-set", "faults=stragglefactor=8", "-grid", "level=0,0.3"), []string{"\n0.00   ", "\n0.30   "}},
		// A FedCross option on a fedavg preset is read once algo makes it fedcross.
		{micro("-experiment", "robust", "-grid", "frac=0", "-grid", "reducer=mean", "-set", "algo=fedcross", "-set", "alpha=0.9"), []string{"Byzantine robustness — fedcross"}},
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

	// The fault spec's straggle factor survives the level axis, which
	// writes only the seven rates.
	p := resolve(t, micro("-experiment", "faults", "-set", "faults=stragglefactor=8", "-grid", "level=0,0.3")...)
	if f := p.grids["faults"][0].Base.Profile.Faults; f.StraggleFactor != 8 {
		t.Errorf("faults spec stragglefactor=8 left %+v", f)
	}
}

// resolve parses and checks a command line the way run does, without
// running it.
func resolve(t *testing.T, args ...string) *plan {
	t.Helper()
	o, err := parse(args)
	if err != nil {
		t.Fatal(err)
	}
	p, err := o.resolve()
	if err != nil {
		t.Fatal(err)
	}
	return p
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
// leaves the axes it does not name at their defaults, which the preset
// takes after -set k has reached the profile.
func TestGridOverridesPreset(t *testing.T) {
	out, err := fedsim(t, micro("-experiment", "async", "-set", "k=3", "-grid", "buffer=2")...)
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

// TestTable1Unchanged pins the two experiments that are plain functions,
// table1 and fig3, to their whole tiny-profile outputs, byte for byte.
func TestTable1Unchanged(t *testing.T) {
	for _, name := range []string{"table1", "fig3"} {
		want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := fedsim(t, "-profile", "tiny", "-experiment", name)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s output changed:\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
		}
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

// TestFlagBudget: fedsim's flags describe the run, not the cell.
func TestFlagBudget(t *testing.T) {
	fs, _ := newFlagSet()
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n > 15 {
		t.Fatalf("fedsim defines %d flags, budget 15", n)
	}
}

// TestRemovedFlagsNameTheirKey: every per-setting flag -set replaced
// fails naming the key to use, in both flag spellings.
func TestRemovedFlagsNameTheirKey(t *testing.T) {
	for flagName, key := range map[string]string{
		"rounds": "rounds", "clients": "n", "k": "k", "codec": "codec", "net": "net",
		"deadline": "deadline", "reducer": "reducer", "attack": "attack", "attackfrac": "frac",
		"attackscale": "attackscale", "staleexp": "staleexp", "faults": "faults", "quorum": "quorum",
		"retries": "retries", "retrybackoff": "retrybackoff", "churn": "churn", "prefetch": "prefetch",
	} {
		want := "use -set " + key + "=0.1"
		for _, args := range [][]string{{"-experiment", "table1", "-" + flagName, "0.1"}, {"--" + flagName + "=0.1"}} {
			if _, err := parse(args); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%v: error %v, want one containing %q", args, err, want)
			}
		}
	}
}

// docCmd is one documented fedsim command line, as arguments, and
// whether it is documented to fail (CI negates it with !).
type docCmd struct {
	args  []string
	fails bool
}

// documented is every fedsim command line the README, the examples, the
// command's own package comment and the CI workflow print. A command ends
// at a pipe, so CI's | tee and || exit 1 are not arguments.
func documented(t *testing.T) map[string]docCmd {
	t.Helper()
	files, err := filepath.Glob("../../examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	cmds := map[string]docCmd{}
	line := regexp.MustCompile("fedsim( -[^`\"#|\n]*)")
	for _, path := range append(files, "../../README.md", "main.go", "../../.github/workflows/ci.yml") {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := regexp.MustCompile(`\\\n\s*`).ReplaceAllString(string(b), "") // shell continuations
		for _, m := range line.FindAllStringSubmatchIndex(text, -1) {
			before := text[strings.LastIndexByte(text[:m[0]], '\n')+1 : m[0]]
			cmds[path+": fedsim"+text[m[2]:m[3]]] = docCmd{
				args:  strings.Fields(text[m[2]:m[3]]),
				fails: strings.HasPrefix(strings.TrimSpace(before), "!"),
			}
		}
	}
	return cmds
}

// TestDocumentedCommandsParse: every documented command line gets through
// the parse-and-check step run takes before anything runs, and every one
// documented to fail fails there.
func TestDocumentedCommandsParse(t *testing.T) {
	cmds := documented(t)
	if len(cmds) < 30 {
		t.Fatalf("found %d documented command lines, want the README's, the examples', main.go's and CI's", len(cmds))
	}
	for name, c := range cmds {
		o, err := parse(c.args)
		if err == nil {
			_, err = o.resolve()
		}
		switch {
		case c.fails && err == nil:
			t.Errorf("%s: accepted, documented to fail", name)
		case !c.fails && err != nil:
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestReadmeKeyTable: the README's key table lists exactly the axis
// table's keys.
func TestReadmeKeyTable(t *testing.T) {
	b, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(b), "| Key | Sets | Values |")
	if !ok {
		t.Fatal("README has no key table")
	}
	var keys []string
	for _, row := range strings.Split(table, "\n")[2:] {
		if !strings.HasPrefix(row, "| `") {
			break
		}
		key, _, _ := strings.Cut(strings.TrimPrefix(row, "| `"), "`")
		keys = append(keys, key)
	}
	if want := experiments.AxisNames(); !slices.Equal(keys, want) {
		t.Fatalf("README key table lists %v, want %v", keys, want)
	}
}
