// Strategy ablation: a slice of the paper's Table III. Sweeps the
// cross-aggregation weight alpha against the three collaborative-model
// selection strategies and prints the accuracy grid. The paper's shape:
// lowest-similarity wins for most alphas, highest-similarity is the worst
// (similar models cluster and the final averaging suffers), and
// alpha = 0.999 collapses.
//
// This tiny profile's 12 rounds need not show that shape, so the lines
// under the table name, from its own rows, the best and the worst
// strategy at each alpha.
package main

import (
	"cmp"
	"fmt"
	"log"
	"os"
	"slices"

	"fedcross/internal/experiments"
)

func main() {
	profile := experiments.TinyProfile()
	profile.Rounds = 12

	grid, err := experiments.GridPreset("table3", profile)
	if err != nil {
		log.Fatal(err)
	}
	alphas := []string{"0.5", "0.9", "0.99", "0.999"}
	if err := grid.Sweep("alpha", alphas...); err != nil {
		log.Fatal(err)
	}
	res, err := experiments.RunGrid(grid)
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Every cell's Coords is (alpha, strategy).
	rows := map[string][]experiments.GridCell{}
	for _, c := range res.Cells {
		rows[c.Coords[0]] = append(rows[c.Coords[0]], c)
	}
	byMean := func(a, b experiments.GridCell) int { return cmp.Compare(a.Stat().Mean, b.Stat().Mean) }
	fmt.Println()
	for _, alpha := range alphas {
		best, worst := slices.MaxFunc(rows[alpha], byMean), slices.MinFunc(rows[alpha], byMean)
		fmt.Printf("alpha=%-5s best %s (%.2f), worst %s (%.2f)\n",
			alpha, best.Coords[1], 100*best.Stat().Mean, worst.Coords[1], 100*worst.Stat().Mean)
	}
}
