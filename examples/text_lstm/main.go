// Text LSTM scenario: the paper's LEAF-style rows of Table II. Trains the
// six FL methods on the synthetic Shakespeare (next-character) and
// Sent140 (sentiment) substitutes with LSTM models — both naturally
// non-IID by client. Exercises the Embedding/LSTM path of the substrate
// end to end.
//
// Sent140 runs 50 rounds, long enough to learn. Shakespeare runs 10: it
// sits at chance at every length tried so far (ROADMAP item 1(e)). Each
// dataset closes with a verdict computed from its own rows: how many
// methods end above chance (1/classes) by more than three binomial
// standard errors of the test set.
package main

import (
	"fmt"
	"log"
	"math"

	"fedcross"
)

func main() {
	profile := fedcross.TinyProfile()
	profile.NumClients = 12
	profile.ClientsPerRound = 4

	rounds := map[string]int{"shakespeare": 10, "sent140": 50}
	for _, dataset := range []string{"shakespeare", "sent140"} {
		profile.Rounds = rounds[dataset]
		fmt.Printf("=== %s, %d rounds ===\n", dataset, profile.Rounds)
		var chance, bar float64
		above := 0
		names := fedcross.AlgorithmNames()
		for _, name := range names {
			env, err := profile.BuildEnv(dataset, "", fedcross.Heterogeneity{IID: true}, 1)
			if err != nil {
				log.Fatal(err)
			}
			chance = 1 / float64(env.Fed.Classes)
			bar = chance + 3*math.Sqrt(chance*(1-chance)/float64(env.Fed.Test.Len()))
			algo, err := fedcross.NewAlgorithm(name)
			if err != nil {
				log.Fatal(err)
			}
			hist, err := fedcross.Run(algo, env, profile.Config(1))
			if err != nil {
				log.Fatal(err)
			}
			if hist.Final().TestAcc > bar {
				above++
			}
			fmt.Printf("%-9s final=%.3f best=%.3f\n", name, hist.Final().TestAcc, hist.BestAcc())
		}
		verdict := "some methods learn"
		switch above {
		case 0:
			verdict = "at chance"
		case len(names):
			verdict = "every method learns"
		}
		fmt.Printf("%s: %d of %d methods end above chance %.3f (bar %.3f) — %s\n\n",
			dataset, above, len(names), chance, bar, verdict)
	}
}
