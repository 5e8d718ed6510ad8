// Lossy uplink: run FedCross over a simulated LTE network with a round
// deadline, sweeping the wire codec — the deployment question the
// accounting-only engine could never ask. Compression shrinks every
// payload, which both cuts traffic *and* can rescue slow clients from
// the deadline: the closing line reads the straggler column from the
// rows. Compare, too, what each megabyte bought in accuracy.
package main

import (
	"fmt"
	"log"
	"slices"

	"fedcross"
)

func main() {
	profile := fedcross.TinyProfile()
	profile.Rounds = 12
	profile.EvalEvery = 4
	het := fedcross.Heterogeneity{Beta: 0.5}

	const (
		network  = "edge" // 2/0.5 Mbps median, 200 ms latency, heavy jitter
		deadline = 1.2    // seconds per round before the server stops waiting
	)

	fmt.Println("Lossy uplink — FedCross on a simulated edge fleet, 1.2 s round deadline")
	fmt.Printf("%d clients, %d per round, %d rounds\n\n",
		profile.NumClients, profile.ClientsPerRound, profile.Rounds)
	fmt.Printf("%-10s  %8s  %8s  %10s  %10s\n", "codec", "final", "best", "MB on wire", "stragglers")

	codecs := []string{"identity", "fp16", "int8", "topk:0.1"}
	stragglers := make([]int, len(codecs))
	for i, codec := range codecs {
		env, err := profile.BuildEnv("vision10", "cnn", het, 1)
		if err != nil {
			log.Fatal(err)
		}
		algo, err := fedcross.NewFedCross(fedcross.DefaultFedCrossOptions())
		if err != nil {
			log.Fatal(err)
		}
		cfg := profile.Config(1)
		cfg.Transport = fedcross.TransportOptions{
			Codec:       codec,
			Network:     network,
			DeadlineSec: deadline,
		}
		hist, err := fedcross.Run(algo, env, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s  %8.4f  %8.4f  %10.2f  %10d\n",
			codec, hist.Final().TestAcc, hist.BestAcc(),
			float64(hist.TotalBytes())/(1<<20), hist.Stragglers)
		stragglers[i] = hist.Stragglers
	}
	trend := "never rose"
	if !slices.IsSortedFunc(stragglers, func(a, b int) int { return b - a }) {
		trend = "rose at least once"
	}
	fmt.Printf("\nStragglers %v from %s to %s: the count %s as the codec got more aggressive.\n",
		stragglers, codecs[0], codecs[len(codecs)-1], trend)

	fmt.Println("\nEvery run is deterministic: same seed, same stragglers, same bytes —")
	fmt.Println("at any -parallel setting. Try the sweep harness too:")
	fmt.Println("  go run ./cmd/fedsim -experiment comm -set net=edge -set deadline=1.2")
}
