// Lossy uplink: run FedCross over a simulated LTE network with a round
// deadline, sweeping the wire codec — the deployment question the
// accounting-only engine could never ask. Compression shrinks every
// payload, which both cuts traffic *and* rescues slow clients from the
// deadline: watch the straggler column fall as the codec gets more
// aggressive, and compare what each megabyte bought in accuracy.
package main

import (
	"fmt"
	"log"

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

	for _, codec := range []string{"identity", "fp16", "int8", "topk:0.1"} {
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
	}

	fmt.Println("\nEvery run is deterministic: same seed, same stragglers, same bytes —")
	fmt.Println("at any -parallel setting. Try the sweep harness too:")
	fmt.Println("  go run ./cmd/fedsim -experiment comm -set net=edge -set deadline=1.2")
}
