package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"fedcross/internal/core"
	"fedcross/internal/fl"
)

// setters pins, for every settable field of a run's options, the product
// code that sets it: "axis:<key>" (grid.go's axis table, so fedsim -set
// and -grid), "flag:<name>" (a fedsim flag), "profile:<field>" (a
// Profile field every profile fills), "preset:<name>" (a grid preset's
// base cell), "scheduler" (sched.go) or "benchmark" (benchmark/'s
// workloads). A field no product code sets has no row, and the test
// fails on it: delete the field, or give it a caller and a row here.
var setters = map[string]string{
	"fl.Config.Rounds":                    "axis:rounds",
	"fl.Config.ClientsPerRound":           "axis:k",
	"fl.Config.LocalEpochs":               "profile:LocalEpochs",
	"fl.Config.BatchSize":                 "profile:BatchSize",
	"fl.Config.LR":                        "profile:LR",
	"fl.Config.Momentum":                  "profile:Momentum",
	"fl.Config.EvalEvery":                 "profile:EvalEvery",
	"fl.Config.Seed":                      "profile:Seeds",
	"fl.Config.Parallelism":               "flag:parallel",
	"fl.Config.Transport.Codec":           "axis:codec",
	"fl.Config.Transport.Network":         "axis:net",
	"fl.Config.Transport.DeadlineSec":     "axis:deadline",
	"fl.Config.Transport.Retries":         "axis:retries",
	"fl.Config.Transport.RetryBackoffSec": "axis:retrybackoff",
	"fl.Config.Reducer":                   "axis:reducer",
	"fl.Config.Adversary.Attack":          "axis:attack",
	"fl.Config.Adversary.Frac":            "axis:frac",
	"fl.Config.Adversary.Scale":           "axis:attackscale",
	"fl.Config.Faults.CrashRate":          "axis:faults",
	"fl.Config.Faults.DropRate":           "axis:faults",
	"fl.Config.Faults.TruncateRate":       "axis:faults",
	"fl.Config.Faults.CorruptRate":        "axis:faults",
	"fl.Config.Faults.DuplicateRate":      "axis:faults",
	"fl.Config.Faults.StraggleRate":       "axis:faults",
	"fl.Config.Faults.StraggleFactor":     "axis:faults",
	"fl.Config.Faults.StallRate":          "axis:faults",
	"fl.Config.Faults.StallSec":           "axis:faults",
	"fl.Config.MinUploads":                "axis:quorum",
	"fl.Config.Churn.Availability":        "axis:avail",
	"fl.Config.Churn.PeriodRounds":        "axis:churn",
	"fl.Config.Churn.Jitter":              "axis:churn",
	"fl.Config.Churn.StartFrac":           "axis:churn",
	"fl.Config.Churn.EndFrac":             "axis:churn",
	"fl.Config.Checkpoint.Path":           "flag:checkpoint",
	"fl.Config.Checkpoint.Every":          "flag:checkpointevery",
	"fl.Config.Checkpoint.Resume":         "flag:resume",
	"fl.Config.Checkpoint.StopAfterRound": "flag:stopafter",
	"fl.Config.PrefetchRounds":            "axis:prefetch",
	"fl.Config.Budget":                    "scheduler",
	"fl.AsyncOptions.Buffer":              "axis:buffer",
	"fl.AsyncOptions.InFlight":            "axis:inflight",
	"fl.AsyncOptions.Commits":             "benchmark",
	"fl.AsyncOptions.StalenessExp":        "axis:staleexp",
	"core.Options.Alpha":                  "axis:alpha",
	"core.Options.Strategy":               "axis:strategy",
	"core.Options.Similarity":             "axis:similarity",
	"core.Options.Accel":                  "axis:accel",
	"core.Options.AccelRounds":            "preset:fig9",
	"core.Options.PropellerCount":         "axis:propellers",
	"core.Options.DisableShuffle":         "axis:shuffle",
}

// settableFields lists the exported fields of t by path, recursing into
// the nested option structs (the struct types named …Options).
func settableFields(t reflect.Type, path string) []string {
	var out []string
	for i := range t.NumField() {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name := path + "." + f.Name
		if f.Type.Kind() == reflect.Struct && strings.HasSuffix(f.Type.Name(), "Options") {
			out = append(out, settableFields(f.Type, name)...)
		} else {
			out = append(out, name)
		}
	}
	return out
}

// readSources concatenates the Go files matching the glob.
func readSources(t *testing.T, glob string) string {
	t.Helper()
	files, err := filepath.Glob(glob)
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no files (%v)", glob, err)
	}
	var b strings.Builder
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(src)
	}
	return b.String()
}

// TestEverySettingHasAProductSetter: every settable field of fl.Config
// (nested options included), fl.AsyncOptions and core.Options has a row
// in setters, every row names such a field, and what each row names
// exists: the axis key, the fedsim flag, the Profile field, the preset,
// or the field's assignment in sched.go or benchmark/.
func TestEverySettingHasAProductSetter(t *testing.T) {
	var fields []string
	for _, v := range []any{fl.Config{}, fl.AsyncOptions{}, core.Options{}} {
		typ := reflect.TypeOf(v)
		fields = append(fields, settableFields(typ, typ.String())...)
	}
	for _, f := range fields {
		if _, ok := setters[f]; !ok {
			t.Errorf("%s: no product code sets it (no experiment axis, fedsim flag, profile, preset, scheduler or benchmark)", f)
		}
	}
	fedsim := readSources(t, "../../cmd/fedsim/main.go")
	bench := readSources(t, "../../benchmark/*.go")
	sched := readSources(t, "sched.go")
	for path, setter := range setters {
		if !slices.Contains(fields, path) {
			t.Errorf("setters names %s, which is not a settable field", path)
			continue
		}
		field := path[strings.LastIndex(path, ".")+1:]
		kind, name, _ := strings.Cut(setter, ":")
		var ok bool
		switch kind {
		case "axis":
			ok = slices.Contains(AxisNames(), name)
		case "flag":
			ok = regexp.MustCompile(`fs\.\w+\([^,]+, "` + regexp.QuoteMeta(name) + `",`).MatchString(fedsim)
		case "profile":
			_, ok = reflect.TypeOf(Profile{}).FieldByName(name)
		case "preset":
			_, err := GridPreset(name, TinyProfile())
			ok = err == nil
		case "scheduler":
			ok = strings.Contains(sched, "."+field+" = ")
		case "benchmark":
			ok = strings.Contains(bench, field+": ")
		}
		if !ok {
			t.Errorf("%s: its setter %q does not exist", path, setter)
		}
	}
}
