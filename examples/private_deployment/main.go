// Private deployment: the paper's Section IV-F1 argues FedCross composes
// with the privacy mechanisms used for FedAvg because its client protocol
// is identical. This example trains FedCross, wraps it with the local-DP
// release mechanism (clip + Gaussian noise), and reports the
// accuracy/fairness cost of increasing noise via the per-client
// evaluation report. The closing line is computed from the rows. At this
// tiny profile's 10 rounds FedCross is still close to chance (0.1), so
// the rows differ by a few test samples.
package main

import (
	"fmt"
	"log"

	"fedcross"
)

func main() {
	profile := fedcross.TinyProfile()
	profile.Rounds = 10
	het := fedcross.Heterogeneity{Beta: 0.5}

	fmt.Println("FedCross with differentially private model release")
	fmt.Println("noise_std  test_acc  per-client mean  worst client")

	noises := []float64{0, 0.005, 0.02, 0.08}
	accs := make([]float64, len(noises))
	for i, noise := range noises {
		env, err := profile.BuildEnv("vision10", "cnn", het, 1)
		if err != nil {
			log.Fatal(err)
		}
		inner, err := fedcross.NewFedCross(fedcross.DefaultFedCrossOptions())
		if err != nil {
			log.Fatal(err)
		}
		algo, err := fedcross.WithPrivacy(inner, fedcross.PrivacyOptions{
			ClipNorm: 5, NoiseStd: noise, Seed: 7,
		})
		if err != nil {
			log.Fatal(err)
		}
		hist, err := fedcross.Run(algo, env, profile.Config(1))
		if err != nil {
			log.Fatal(err)
		}
		rep, err := fedcross.EvaluatePerClient(env, algo.Global(), 32, 0)
		if err != nil {
			log.Fatal(err)
		}
		accs[i] = hist.Final().TestAcc
		fmt.Printf("%-9.3f  %-8.3f  %-15.3f  %.3f\n", noise, accs[i], rep.Mean, rep.Worst)
	}

	shape := "fell at every step"
	for i := 1; i < len(accs); i++ {
		if accs[i] >= accs[i-1] {
			shape = fmt.Sprintf("did not fall at every step (%.3f after %.3f at noise %.3f)", accs[i], accs[i-1], noises[i])
			break
		}
	}
	fmt.Printf("\nTest accuracy %.3f without noise, %.3f at the most; it %s.\n", accs[0], accs[len(accs)-1], shape)
}
