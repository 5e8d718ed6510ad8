// Quickstart: train FedCross and FedAvg on the same non-IID synthetic
// vision federation and compare their learning curves — the smallest
// end-to-end use of the public API. The closing line is read off the two
// runs' own histories: the bytes each moved over the wire and which
// reached the higher best accuracy.
package main

import (
	"fmt"
	"log"

	"fedcross"
)

func main() {
	profile := fedcross.TinyProfile()
	profile.Rounds = 12
	het := fedcross.Heterogeneity{Beta: 0.5} // non-IID: Dir(0.5) label skew

	fmt.Println("FedCross quickstart — CNN on synthetic CIFAR-10 substitute, Dir(0.5)")
	fmt.Printf("%d clients, %d per round, %d rounds\n\n",
		profile.NumClients, profile.ClientsPerRound, profile.Rounds)

	names := []string{"fedavg", "fedcross"}
	hists := make([]*fedcross.History, len(names))
	for i, name := range names {
		// Build an identical environment for each method (same seed).
		env, err := profile.BuildEnv("vision10", "cnn", het, 1)
		if err != nil {
			log.Fatal(err)
		}
		algo, err := fedcross.NewAlgorithm(name)
		if err != nil {
			log.Fatal(err)
		}
		hist, err := fedcross.Run(algo, env, profile.Config(1))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s", name)
		for _, m := range hist.Metrics {
			fmt.Printf("  r%d=%.3f", m.Round, m.TestAcc)
		}
		fmt.Printf("  (best %.3f, comm %s)\n", hist.BestAcc(), hist.Comm.String())
		hists[i] = hist
	}

	avg, cross := hists[0], hists[1]
	fmt.Printf("\nMeasured wire traffic (down + up): fedavg %d B, fedcross %d B.\n", avg.TotalBytes(), cross.TotalBytes())
	switch a, c := avg.BestAcc(), cross.BestAcc(); {
	case c > a:
		fmt.Printf("FedCross reached the higher best accuracy: %.3f against %.3f.\n", c, a)
	case a > c:
		fmt.Printf("FedAvg reached the higher best accuracy: %.3f against %.3f.\n", a, c)
	default:
		fmt.Printf("Both reached the same best accuracy, %.3f.\n", a)
	}
}
