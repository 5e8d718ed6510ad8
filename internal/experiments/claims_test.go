package experiments

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// The claims ledger: testdata/claims.json is the one place a reproduction
// number is written, and README's block from claimsBegin to claimsEnd is
// its render. fidelity_test.go fills it from two preset runs.
const (
	claimsPath, readmePath = "testdata/claims.json", "../../README.md"
	claimsBegin            = "<!-- claims ledger: rendered from internal/experiments/testdata/claims.json; do not edit by hand -->\n"
	claimsEnd              = "<!-- end of the claims ledger -->\n"
)

// claim is one cell of the ledger: FedCross's margin over Baseline on one
// row (Labels, under the row axes' Heads) of the preset run that Title and
// Command describe, on the Measure "accuracy" or "sharpness" (lower is
// ahead), with its Verdict.
type claim struct {
	Preset, Title, Command string
	Heads, Labels          []string
	Baseline, Measure      string
	marginStat
	Verdict string
}

// verdict is the ledger's one bar: "yes" when FedCross is ahead on the
// mean and on at least four seeds in five, "on the mean" when it is ahead
// on the mean only, "no" otherwise.
func (c claim) verdict() string {
	lead := c.Mean
	if c.Measure == "sharpness" {
		lead = -lead
	}
	switch {
	case lead <= 0:
		return "no"
	case 5*c.Wins >= 4*c.Seeds:
		return "yes"
	}
	return "on the mean"
}

// String renders the cell: the margin (accuracy in points), wins/seeds and
// the verdict.
func (c claim) String() string {
	m := c.marginStat.String()
	if c.Measure == "sharpness" {
		m = fmt.Sprintf("%+.2f ± %.2f", c.Mean, c.Std)
	}
	return fmt.Sprintf("%s, %d/%d, %s", m, c.Wins, c.Seeds, c.Verdict)
}

// pinned is the index of the cell the fidelity lane gates, Table II at
// β = 0.5 and 400 rounds against FedAvg, or -1.
func pinned(l []claim) int {
	return slices.IndexFunc(l, func(c claim) bool {
		return c.Preset == "fidelity" && slices.Equal(c.Labels, []string{"400", "beta=0.5"}) && c.Baseline == "fedavg"
	})
}

// render writes README's block: per run its title, command and a markdown
// table with a row per row of the run and a column per baseline and
// measure.
func render(l []claim) string {
	b := &strings.Builder{}
	b.WriteString(claimsBegin)
	for i, c := range l {
		run := i == 0 || c.Preset != l[i-1].Preset
		if run {
			heads := slices.Clone(c.Heads)
			for _, d := range l[i:] {
				if d.Preset == c.Preset && slices.Equal(d.Labels, c.Labels) {
					heads = append(heads, d.Measure+" vs "+d.Baseline)
				}
			}
			fmt.Fprintf(b, "\n%s: `%s`\n\n| %s |\n|%s", c.Title, c.Command, strings.Join(heads, " | "), strings.Repeat(" --- |", len(heads)))
		}
		if run || !slices.Equal(c.Labels, l[i-1].Labels) {
			fmt.Fprintf(b, "\n| %s |", strings.Join(c.Labels, " | "))
		}
		fmt.Fprintf(b, " %s |", c)
		if i == len(l)-1 || c.Preset != l[i+1].Preset {
			b.WriteString("\n")
		}
	}
	return b.String() + "\n" + claimsEnd
}

// check holds every verdict to the bar, the pinned cell to yes and
// README's block to the render, byte for byte.
func check(l []claim, readme string) error {
	for _, c := range l {
		if c.Verdict != c.verdict() {
			return fmt.Errorf("%s %v against %s reads %q, the bar gives %q", c.Preset, c.Labels, c.Baseline, c.Verdict, c.verdict())
		}
	}
	if p := pinned(l); p < 0 || l[p].Verdict != "yes" {
		return fmt.Errorf("the pinned cell is missing or does not read yes")
	}
	if _, rest, _ := strings.Cut(readme, claimsBegin); !strings.HasPrefix(claimsBegin+rest, render(l)) {
		return fmt.Errorf("README's ledger block is not the render of %s", claimsPath)
	}
	return nil
}

// loadClaims reads claims.json and README.
func loadClaims(t testing.TB) (l []claim, readme string) {
	raw, err := os.ReadFile(claimsPath)
	if err == nil {
		err = json.Unmarshal(raw, &l)
	}
	md, err2 := os.ReadFile(readmePath)
	if err := cmp.Or(err, err2); err != nil {
		t.Fatal(err)
	}
	return l, string(md)
}

// TestClaimsLedger: README's ledger block is the render of claims.json,
// every verdict is the bar's and the pinned cell reads yes. A README cell
// edited by hand and a pinned cell that falls short of the bar both fail.
func TestClaimsLedger(t *testing.T) {
	l, readme := loadClaims(t)
	if err := check(l, readme); err != nil {
		t.Fatal(err)
	}
	if check(l, strings.Replace(readme, l[0].String(), "+9"+l[0].String(), 1)) == nil {
		t.Fatal("a README cell edited by hand passes")
	}
	p := &l[pinned(l)]
	p.Wins = 3
	p.Verdict = p.verdict()
	if check(l, render(l)) == nil {
		t.Fatal("a pinned cell ahead on 3 of 5 seeds passes")
	}
}
