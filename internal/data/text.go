package data

import (
	"fmt"

	"fedcross/internal/tensor"
)

// ShakespeareConfig parameterises the synthetic Shakespeare substitute: a
// next-character prediction task where each client ("role") speaks from
// its own Markov source, giving the natural per-client distribution skew
// of the real LEAF split.
type ShakespeareConfig struct {
	// Vocab is the character-alphabet size.
	Vocab int
	// SeqLen is the context window T; the label is the character that
	// follows the window.
	SeqLen int
	// Clients is the number of roles.
	Clients int
	// SamplesPerClient is the number of (window, next-char) pairs each
	// role contributes.
	SamplesPerClient int
	// TestSamples is the size of the shared test set (drawn from all
	// roles' sources).
	TestSamples int
	// Mix in [0,1] blends each role's private transition matrix with the
	// shared one; 1 would make all roles identical.
	Mix float64
	// Seed drives the generator.
	Seed int64
}

// GenerateShakespeare builds the federated char-LM task.
func GenerateShakespeare(cfg ShakespeareConfig) *Federated {
	if cfg.Vocab <= 1 || cfg.SeqLen <= 0 || cfg.Clients <= 0 {
		panic(fmt.Sprintf("data: invalid Shakespeare config %+v", cfg))
	}
	rng := tensor.NewRNG(cfg.Seed)

	shared := markovMatrix(rng, cfg.Vocab, 2.0)
	roleMats := make([][][]float64, cfg.Clients)
	for r := range roleMats {
		private := markovMatrix(rng, cfg.Vocab, 0.3) // peaky private habits
		roleMats[r] = blendMatrices(shared, private, cfg.Mix)
	}

	genSeq := func(rng *tensor.RNG, mat [][]float64, n int) []int {
		seq := make([]int, n)
		seq[0] = rng.Intn(cfg.Vocab)
		for i := 1; i < n; i++ {
			seq[i] = sampleRow(rng, mat[seq[i-1]])
		}
		return seq
	}

	makeSet := func(rng *tensor.RNG, mat [][]float64, samples int) *Dataset {
		x := tensor.Zeros(samples, cfg.SeqLen)
		y := make([]int, samples)
		for i := 0; i < samples; i++ {
			seq := genSeq(rng, mat, cfg.SeqLen+1)
			for t := 0; t < cfg.SeqLen; t++ {
				x.Data[i*cfg.SeqLen+t] = float64(seq[t])
			}
			y[i] = seq[cfg.SeqLen]
		}
		return &Dataset{X: x, Y: y, Classes: cfg.Vocab, TokenVocab: cfg.Vocab}
	}

	clients := make([]*Dataset, cfg.Clients)
	for r := range clients {
		clients[r] = makeSet(rng.Split(), roleMats[r], cfg.SamplesPerClient)
	}
	// Test set: samples drawn from every role's source in turn.
	testRNG := rng.Split()
	xt := tensor.Zeros(cfg.TestSamples, cfg.SeqLen)
	yt := make([]int, cfg.TestSamples)
	for i := 0; i < cfg.TestSamples; i++ {
		mat := roleMats[i%cfg.Clients]
		seq := genSeq(testRNG, mat, cfg.SeqLen+1)
		for t := 0; t < cfg.SeqLen; t++ {
			xt.Data[i*cfg.SeqLen+t] = float64(seq[t])
		}
		yt[i] = seq[cfg.SeqLen]
	}

	return &Federated{
		Name:    "synth-shakespeare",
		Clients: clients,
		Test:    &Dataset{X: xt, Y: yt, Classes: cfg.Vocab, TokenVocab: cfg.Vocab},
		Classes: cfg.Vocab,
	}
}

// Sent140Config parameterises the synthetic Sent140 substitute: binary
// sentiment over token sequences, with per-user topic vocabularies.
type Sent140Config struct {
	// Vocab is the token-space size.
	Vocab int
	// SeqLen is the tweet length in tokens.
	SeqLen int
	// Clients is the number of users.
	Clients int
	// SamplesPerClient is the tweets per user.
	SamplesPerClient int
	// TestSamples is the shared test-set size.
	TestSamples int
	// SentimentTokens is the number of vocabulary entries reserved for
	// each polarity; the rest are topic/noise tokens.
	SentimentTokens int
	// Seed drives the generator.
	Seed int64
}

// DefaultSent140 gives a CPU-scale stand-in for the paper's 803-user
// Sent140 task.
func DefaultSent140(seed int64) Sent140Config {
	return Sent140Config{
		Vocab: 40, SeqLen: 8, Clients: 40, SamplesPerClient: 30,
		TestSamples: 400, SentimentTokens: 6, Seed: seed,
	}
}

// GenerateSent140 builds the federated sentiment task. Tweets mix
// sentiment-bearing tokens (shared across users) with user-specific topic
// tokens, so the label signal is global but the marginals are non-IID.
func GenerateSent140(cfg Sent140Config) *Federated {
	if cfg.Vocab <= 2*cfg.SentimentTokens || cfg.Clients <= 0 {
		panic(fmt.Sprintf("data: invalid Sent140 config %+v", cfg))
	}
	rng := tensor.NewRNG(cfg.Seed)
	topicLo := 2 * cfg.SentimentTokens // tokens [0,S) positive, [S,2S) negative

	makeTweet := func(rng *tensor.RNG, label int, topicBase int, dst []float64) {
		for t := range dst {
			r := rng.Float64()
			switch {
			case r < 0.4: // sentiment token of the label's polarity
				dst[t] = float64(label*cfg.SentimentTokens + rng.Intn(cfg.SentimentTokens))
			case r < 0.5: // contrarian token (noise)
				dst[t] = float64((1-label)*cfg.SentimentTokens + rng.Intn(cfg.SentimentTokens))
			default: // user-topic token
				span := cfg.Vocab - topicLo
				dst[t] = float64(topicLo + (topicBase+rng.Intn(span/4+1))%span)
			}
		}
	}

	clients := make([]*Dataset, cfg.Clients)
	for u := 0; u < cfg.Clients; u++ {
		crng := rng.Split()
		topicBase := crng.Intn(cfg.Vocab - topicLo)
		// Users have a sentiment bias (label imbalance).
		posRate := 0.25 + 0.5*crng.Float64()
		x := tensor.Zeros(cfg.SamplesPerClient, cfg.SeqLen)
		y := make([]int, cfg.SamplesPerClient)
		for i := 0; i < cfg.SamplesPerClient; i++ {
			label := 0
			if crng.Float64() < posRate {
				label = 1
			}
			y[i] = label
			makeTweet(crng, label, topicBase, x.Data[i*cfg.SeqLen:(i+1)*cfg.SeqLen])
		}
		clients[u] = &Dataset{X: x, Y: y, Classes: 2, TokenVocab: cfg.Vocab}
	}

	testRNG := rng.Split()
	xt := tensor.Zeros(cfg.TestSamples, cfg.SeqLen)
	yt := make([]int, cfg.TestSamples)
	for i := 0; i < cfg.TestSamples; i++ {
		label := i % 2
		yt[i] = label
		makeTweet(testRNG, label, testRNG.Intn(cfg.Vocab-topicLo), xt.Data[i*cfg.SeqLen:(i+1)*cfg.SeqLen])
	}

	return &Federated{
		Name:    "synth-sent140",
		Clients: clients,
		Test:    &Dataset{X: xt, Y: yt, Classes: 2, TokenVocab: cfg.Vocab},
		Classes: 2,
	}
}

// markovMatrix draws a row-stochastic transition matrix whose rows are
// Dir(alpha) samples; small alpha gives peaky (distinctive) dynamics.
func markovMatrix(rng *tensor.RNG, n int, alpha float64) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = rng.Dirichlet(alpha, n)
	}
	return m
}

// blendMatrices returns mix*shared + (1-mix)*private, rowwise.
func blendMatrices(shared, private [][]float64, mix float64) [][]float64 {
	n := len(shared)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			out[i][j] = mix*shared[i][j] + (1-mix)*private[i][j]
		}
	}
	return out
}

// sampleRow draws an index from a probability row.
func sampleRow(rng *tensor.RNG, p []float64) int {
	r := rng.Float64()
	cum := 0.0
	for i, v := range p {
		cum += v
		if r < cum {
			return i
		}
	}
	return len(p) - 1
}
