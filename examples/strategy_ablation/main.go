// Strategy ablation: a slice of the paper's Table III. Sweeps the
// cross-aggregation weight alpha against the three collaborative-model
// selection strategies and prints the accuracy grid. The paper's shape:
// lowest-similarity wins for most alphas, highest-similarity is the worst
// (similar models cluster and the final averaging suffers), and
// alpha = 0.999 collapses.
package main

import (
	"log"
	"os"

	"fedcross/internal/experiments"
)

func main() {
	profile := experiments.TinyProfile()
	profile.Rounds = 12

	grid, err := experiments.GridPreset("table3", profile)
	if err != nil {
		log.Fatal(err)
	}
	if err := grid.Sweep("alpha", "0.5", "0.9", "0.99", "0.999"); err != nil {
		log.Fatal(err)
	}
	res, err := experiments.RunGrid(grid)
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
