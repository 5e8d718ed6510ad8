// Non-IID vision study: a slice of the paper's Table II. Runs all six FL
// methods on the synthetic CIFAR-10 substitute across increasing data
// heterogeneity (Dir(0.1) → IID) and prints the accuracy grid. The
// expected shape matches the paper: every method degrades as beta
// shrinks, and FedCross leads each column.
package main

import (
	"log"
	"os"

	"fedcross/internal/experiments"
)

func main() {
	profile := experiments.TinyProfile()
	profile.Rounds = 14
	profile.Seeds = []int64{1, 2}

	grid, err := experiments.GridPreset("table2", profile)
	if err != nil {
		log.Fatal(err)
	}
	if err := grid.Sweep("beta", "0.1", "0.5", "1.0", "iid"); err != nil {
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
