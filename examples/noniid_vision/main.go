// Non-IID vision study: a slice of the paper's Table II. Runs all six FL
// methods on the synthetic CIFAR-10 substitute across increasing data
// heterogeneity (Dir(0.1) → IID) and prints the accuracy grid, each
// row's winner and how many cells FedCross wins.
//
// At these 14 rounds FedCross trails (still at 50, before α = 0.99
// cross-aggregation has propagated). The paper's claim rests on the
// claims ledger (internal/experiments/testdata/claims.json, rendered in
// README's "Fidelity notes"): on this tiny CNN federation at 400 rounds,
// five seeds, FedCross leads all five baselines at β = 0.1, 0.5 and IID,
// ahead on the mean and on at least four seeds in every cell.
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
