package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		n, wins int
		want    float64
	}{{10, 10, 1.0 / 1024}, {10, 9, 11.0 / 1024}, {10, 8, 56.0 / 1024}, {10, 0, 1}, {0, 0, 1}, {1, 1, 0.5}} {
		if got := signTest(c.n, c.wins); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("signTest(%d, %d) = %v, want %v", c.n, c.wins, got, c.want)
		}
	}
}

// writePairs writes a spec and ten pairs of result files, the head's
// rate and raw walls each pair's base ones scaled by scale(i), and
// returns the spec and pair list paths.
func writePairs(t *testing.T, scale func(i int) float64, history func(i int) string) (spec, list string) {
	dir := t.TempDir()
	spec = filepath.Join(dir, "BENCHMARK.json")
	decl := `{"end_to_end": [{"name": "client_updates_per_s", "better": "higher", "bound": 0.25}, {"name": "final_acc", "better": "higher", "bound": 0.05}]}`
	if err := os.WriteFile(spec, []byte(decl), 0o644); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i := range 10 {
		seed := 100 + i
		rate := 1000 + 10*float64(i%5)
		files := [2]string{}
		for side, k := range [2]float64{1, scale(i)} {
			hist := "h0"
			if side == 1 {
				hist = history(i)
			}
			pass := map[string]any{"workload": "w", "seed": seed, "failed_runs": 0,
				"metrics":        map[string]any{"client_updates_per_s": map[string]float64{"value": rate * k}, "final_acc": map[string]float64{"value": 0.9}},
				"samples":        map[string][]float64{rawWall: []float64{0.2 / k, 0.3 / k, 0.25 / k}[:3-side]},
				"history_sha256": []string{hist}}
			b, err := json.Marshal(map[string]any{"passes": []any{pass}})
			if err != nil {
				t.Fatal(err)
			}
			files[side] = filepath.Join(dir, fmt.Sprintf("w.%d.%d.json", seed, side))
			if err := os.WriteFile(files[side], b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		lines = append(lines, fmt.Sprintf("w\t%d\tbase\t%s\t%s", seed, files[0], files[1]))
	}
	list = filepath.Join(dir, "pairs.tsv")
	if err := os.WriteFile(list, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return spec, list
}

// verdictsOf runs the command and returns its verdict lines by metric.
func verdictsOf(t *testing.T, spec, list string, moved bool) (map[string]verdict, error) {
	var out bytes.Buffer
	err := run(&out, spec, list, moved)
	got := map[string]verdict{}
	pairs := 0
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var v verdict
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatal(err)
		}
		if v.Metric == "" {
			pairs++
			continue
		}
		got[v.Metric] = v
	}
	if pairs != 10 {
		t.Errorf("%d pair lines, want 10", pairs)
	}
	return got, err
}

func TestVerdicts(t *testing.T) {
	same := func(int) string { return "h0" }
	// Nine of ten pairs 10 % faster, one 1 % slower: better, on the rate
	// and on the raw walls of the federations both sides ran.
	spec, list := writePairs(t, func(i int) float64 { return map[bool]float64{true: 0.99, false: 1.1}[i == 3] }, same)
	got, err := verdictsOf(t, spec, list, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"client_updates_per_s", rawWall} {
		if v := got[m]; v.Verdict != "better" || v.Wins != 9 || math.Abs(v.SignP-11.0/1024) > 1e-15 {
			t.Errorf("%s: %+v, want better on 9/10", m, v)
		}
	}
	if v := got["final_acc"]; v.Verdict != "same" || v.Ties != 10 {
		t.Errorf("final_acc: %+v, want ten ties", v)
	}

	// Alternating ±1 %: inside the base's quartile spread, same.
	spec, list = writePairs(t, func(i int) float64 { return 1 + 0.01*float64(1-2*(i%2)) }, same)
	if got, err = verdictsOf(t, spec, list, false); err != nil || got["client_updates_per_s"].Verdict != "same" {
		t.Errorf("A/A: %+v, %v", got["client_updates_per_s"], err)
	}

	// Nine of ten 10 % slower: within the rate's bound of 25 %, so same,
	// but worse on the raw walls, which have no bound. 30 % slower: worse.
	spec, list = writePairs(t, func(i int) float64 { return map[bool]float64{true: 1.01, false: 0.9}[i == 0] }, same)
	if got, err = verdictsOf(t, spec, list, false); err != nil || got["client_updates_per_s"].Verdict != "same" || got[rawWall].Verdict != "worse" {
		t.Errorf("10 %% slower head: %+v, %+v, %v", got["client_updates_per_s"], got[rawWall], err)
	}
	spec, list = writePairs(t, func(int) float64 { return 0.7 }, same)
	if got, err = verdictsOf(t, spec, list, false); err != nil || got["client_updates_per_s"].Verdict != "worse" {
		t.Errorf("30 %% slower head: %+v, %v", got["client_updates_per_s"], err)
	}

	// One pair's history moved: an error naming it, unless histories move
	// on purpose.
	moved := func(i int) string { return map[bool]string{true: "h1", false: "h0"}[i == 4] }
	spec, list = writePairs(t, func(int) float64 { return 1 }, moved)
	if _, err = verdictsOf(t, spec, list, false); err == nil || !strings.Contains(err.Error(), "w seed 104: history_sha256") {
		t.Errorf("a moved history: %v", err)
	}
	if _, err = verdictsOf(t, spec, list, true); err != nil {
		t.Errorf("a moved history under -moved: %v", err)
	}
}
