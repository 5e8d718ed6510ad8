package data

import (
	"fmt"
	"math"

	"fedcross/internal/tensor"
)

// FEMNISTConfig parameterises the synthetic FEMNIST substitute: a
// glyph-classification task that is naturally non-IID because every client
// is a "writer" with a private style transform, and sample counts differ
// per writer — the two heterogeneity axes of the real FEMNIST.
type FEMNISTConfig struct {
	// Classes is the glyph count (real FEMNIST has 62).
	Classes int
	// Features is the flat sample width (defaults target the vision
	// models' 192 input).
	Features int
	// Writers is the number of clients.
	Writers int
	// MinSamples/MaxSamples bound each writer's shard size.
	MinSamples, MaxSamples int
	// TestSamples is the size of the shared held-out set.
	TestSamples int
	// StyleStrength scales the per-writer style transform; 0 makes the
	// task IID.
	StyleStrength float64
	// Seed drives the generator.
	Seed int64
}

// GenerateFEMNIST builds the federated glyph task. Glyph prototypes are
// well separated (easy task); each writer's samples are the prototype plus
// the writer's style offset plus noise. The test set is style-free, so it
// measures writer-independent generalisation.
func GenerateFEMNIST(cfg FEMNISTConfig) *Federated {
	if cfg.Writers <= 0 || cfg.Classes <= 1 {
		panic(fmt.Sprintf("data: invalid FEMNIST config %+v", cfg))
	}
	rng := tensor.NewRNG(cfg.Seed)

	protos := make([][]float64, cfg.Classes)
	for c := range protos {
		protos[c] = randVec(rng, cfg.Features, 1.6) // large separation => easy
	}
	const noise = 0.4

	clients := make([]*Dataset, cfg.Writers)
	for w := 0; w < cfg.Writers; w++ {
		style := randVec(rng, cfg.Features, cfg.StyleStrength)
		gain := 1 + cfg.StyleStrength*(rng.Float64()-0.5)
		n := cfg.MinSamples
		if cfg.MaxSamples > cfg.MinSamples {
			n += rng.Intn(cfg.MaxSamples - cfg.MinSamples + 1)
		}
		x := tensor.Zeros(n, cfg.Features)
		y := make([]int, n)
		for i := 0; i < n; i++ {
			// Writers favour a subset of glyphs (class imbalance).
			c := rng.Intn(cfg.Classes)
			if rng.Float64() < 0.5 {
				c = (w*7 + rng.Intn(8)) % cfg.Classes
			}
			y[i] = c
			row := x.Data[i*cfg.Features : (i+1)*cfg.Features]
			for j := range row {
				v := gain*protos[c][j] + style[j] + rng.Normal(0, noise)
				row[j] = math.Tanh(v)
			}
		}
		clients[w] = &Dataset{X: x, Y: y, Classes: cfg.Classes}
	}

	// Style-free test set.
	xt := tensor.Zeros(cfg.TestSamples, cfg.Features)
	yt := make([]int, cfg.TestSamples)
	for i := 0; i < cfg.TestSamples; i++ {
		c := i % cfg.Classes
		yt[i] = c
		row := xt.Data[i*cfg.Features : (i+1)*cfg.Features]
		for j := range row {
			row[j] = math.Tanh(protos[c][j] + rng.Normal(0, noise))
		}
	}

	return &Federated{
		Name:    "synth-femnist",
		Clients: clients,
		Test:    &Dataset{X: xt, Y: yt, Classes: cfg.Classes},
		Classes: cfg.Classes,
	}
}
