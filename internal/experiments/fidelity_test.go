//go:build fidelity

package experiments

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
)

// ledgerRun is one preset run of the claims ledger on the tiny profile:
// its table's title, fedsim's -grid sweeps and -seeds N as seeds 1…N (nil
// keeps the preset's), and the measures each row is read on.
type ledgerRun struct {
	preset, title string
	sweeps        map[string][]string
	seeds         []int64
	measures      []string
}

// ledgerRuns are the ledger: Table II against every baseline, and Fig. 4's
// flatness beside the accuracy of the same runs.
var ledgerRuns = []ledgerRun{
	{"fidelity", "Table II, FedCross − baseline in final accuracy (points)",
		map[string][]string{"beta": {"0.1", "0.5", "iid"}, "rounds": {"50", "200", "400"},
			"algo": {"fedavg", "fedprox", "scaffold", "fedgen", "clusamp", "fedcross"}},
		nil, []string{"accuracy"}},
	{"fig4", "Fig. 4 on ResNetMini, FedCross − FedAvg in sharpness (lower is flatter) and in final accuracy (points)",
		map[string][]string{"rounds": {"8", "50", "200"}}, []int64{1, 2, 3, 4, 5}, []string{"sharpness", "accuracy"}},
}

// claims runs the preset the way fedsim does and enumerates its claims: in
// each row of the grid, a cell per measure against each algorithm beside
// FedCross. A run that diverges is scored, not dropped: its seed counts
// against its algorithm and the cell names it.
func (r ledgerRun) claims(t *testing.T) (l []claim) {
	p, command := TinyProfile(), "fedsim -experiment "+r.preset
	if r.seeds != nil {
		p.Seeds = r.seeds
		command += fmt.Sprintf(" -seeds %d", len(r.seeds))
	}
	for _, axis := range slices.Sorted(maps.Keys(r.sweeps)) {
		command += " -grid " + axis + "=" + strings.Join(r.sweeps[axis], ",")
	}
	g, _, err := Configure(r.preset, p, r.sweeps, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunGrid(g)
	if res == nil {
		t.Fatal(err)
	} else if err != nil {
		t.Log(err)
	}
	seeds := res.Seeds()
	diverged := func(c GridCell) (runs []string) {
		for si, r := range c.Diverged {
			if r > 0 {
				runs = append(runs, fmt.Sprintf("%s seed %d by round %d", c.Algorithm, seeds[si], r))
			}
		}
		return runs
	}
	values := map[string]func(c GridCell, si int) float64{
		"accuracy": finalAcc, "sharpness": func(c GridCell, si int) float64 { return c.Sharpness[si] }}
	across, groups := res.groups()
	var heads []string
	for a, ax := range res.Axes {
		if a != across {
			heads = append(heads, ax.Header)
		}
	}
	for _, group := range groups {
		cells := make([]GridCell, len(group))
		for j, i := range group {
			cells[j] = res.Cells[i]
		}
		fc := slices.IndexFunc(cells, func(c GridCell) bool { return c.Algorithm == "fedcross" })
		for _, c := range cells {
			for _, measure := range r.measures {
				if m, ok := rowMargin(cells, c.Algorithm, values[measure], measure == "sharpness"); ok && c.Algorithm != "fedcross" {
					cl := claim{Preset: r.preset, Title: r.title, Command: command, Heads: heads, Labels: res.groupLabels(group[0], across),
						Baseline: c.Algorithm, Measure: measure, marginStat: m, Diverged: append(diverged(cells[fc]), diverged(c)...)}
					cl.Verdict = cl.verdict()
					l = append(l, cl)
				}
			}
		}
	}
	return l
}

// TestFidelityFedCrossBeatsFedAvg is the reproduction's claim as a gate.
// It reruns the ledger's pinned cell — the tiny profile's CNN at Dir(0.5),
// 400 rounds, scored on the fidelity preset's 1,000-sample test set — and
// fails unless FedCross finishes ahead of FedAvg on all five seeds and the
// reading equals the ledger's: histories are deterministic, so a
// difference means testdata/claims.json is stale. With -update it runs
// every ledger table instead (≈ 4.5 min on 2 vCPUs; ≈ 5.5 min when
// its final-only runs evaluated every 2 rounds) and rewrites
// claims.json and README's block from them:
//
//	go test -tags fidelity -run TestFidelity ./internal/experiments/
//	go test -tags fidelity -count=1 -timeout 30m -run TestFidelity ./internal/experiments/ -update
func TestFidelityFedCrossBeatsFedAvg(t *testing.T) {
	runs := []ledgerRun{{preset: "fidelity", sweeps: map[string][]string{"rounds": {"400"}, "beta": {"0.5"}}, measures: []string{"accuracy"}}}
	if *update {
		runs = ledgerRuns
	}
	var fresh []claim
	for _, r := range runs {
		fresh = append(fresh, r.claims(t)...)
	}
	if *update {
		raw, err := json.MarshalIndent(fresh, "", "\t")
		md, err2 := os.ReadFile(readmePath)
		head, rest, _ := strings.Cut(string(md), claimsBegin)
		_, tail, ok := strings.Cut(rest, claimsEnd)
		if err := cmp.Or(err, err2); err != nil || !ok {
			t.Fatalf("README's ledger block (found: %v): %v", ok, err)
		}
		for path, b := range map[string]string{claimsPath: string(raw) + "\n", readmePath: head + render(fresh) + tail} {
			if err := os.WriteFile(path, []byte(b), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	ledger, _ := loadClaims(t)
	got, want := pinned(fresh), pinned(ledger)
	if got < 0 || want < 0 {
		t.Fatal("the run or the ledger has no pinned cell")
	}
	if m := fresh[got].marginStat; m != ledger[want].marginStat {
		t.Fatalf("the pinned cell reads %v, the ledger %v: rerun with -update", fresh[got], ledger[want])
	} else if m.Seeds != 5 || m.Wins != 5 {
		t.Fatalf("FedCross ahead of FedAvg on %d of %d seeds (%s points), want all 5", m.Wins, m.Seeds, m)
	}
}
