package baselines

import (
	"fmt"
	"math"

	"fedcross/internal/fl"
	"fedcross/internal/nn"
	"fedcross/internal/tensor"
)

// CluSamp implements clustered client sampling (Fraboni et al., ICML
// 2021): clients are grouped into K clusters and one representative is
// drawn per cluster, reducing the variance of the aggregation. Following
// the paper's setup we cluster on model-gradient similarity (each client's
// last observed update direction) rather than raw data distributions,
// which would leak private information. Clients that have never
// participated share a "cold" pool and are explored first. Aggregation is
// sample-weighted FedAvg, and communication matches FedAvg (Table I:
// Low).
type CluSamp struct {
	server

	// updates[i] is client i's last update direction (yᵢ − x), keyed by
	// client id and absent until first participation — a map rather than
	// a dense slice, so the gradient memory stays O(participants) for
	// huge populations.
	updates map[int]nn.ParamVector
}

// NewCluSamp returns a CluSamp instance.
func NewCluSamp() *CluSamp { return &CluSamp{} }

// Name implements fl.Algorithm.
func (a *CluSamp) Name() string { return "clusamp" }

// Category implements fl.Algorithm.
func (a *CluSamp) Category() string { return "Client Grouping" }

// Init creates the global model and empty gradient memory.
func (a *CluSamp) Init(env *fl.Env, cfg fl.Config, rng *tensor.RNG) error {
	a.init(env, cfg, rng)
	a.updates = make(map[int]nn.ParamVector)
	return nil
}

// SelectClients implements fl.Selector: k-medoid-style clustering on
// cosine similarity of remembered update directions, one uniform draw per
// cluster. Cold clients (no remembered update) are explored before warm
// clusters are exploited.
func (a *CluSamp) SelectClients(r int, rng *tensor.RNG, n, k int) []int {
	var cold, warm []int
	for i := 0; i < n; i++ {
		if a.updates[i] == nil {
			cold = append(cold, i)
		} else {
			warm = append(warm, i)
		}
	}
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })

	selected := make([]int, 0, k)
	// Exploration: fill from the cold pool first.
	for _, ci := range cold {
		if len(selected) == k {
			return selected
		}
		selected = append(selected, ci)
	}
	remaining := k - len(selected)
	if remaining <= 0 || len(warm) == 0 {
		return selected
	}
	clusters := a.clusterWarm(warm, remaining, rng)
	for _, members := range clusters {
		if len(selected) == k {
			break
		}
		if len(members) == 0 {
			continue
		}
		selected = append(selected, members[rng.Intn(len(members))])
	}
	// Top up with random warm clients if clustering under-filled.
	for len(selected) < k {
		selected = append(selected, warm[rng.Intn(len(warm))])
	}
	return selected
}

// clusterWarm greedily assigns warm clients to c clusters seeded by
// far-apart update directions (k-medoids++ style seeding, one assignment
// pass — cheap and adequate for selection).
func (a *CluSamp) clusterWarm(warm []int, c int, rng *tensor.RNG) [][]int {
	if c > len(warm) {
		c = len(warm)
	}
	seeds := make([]int, 0, c)
	seeds = append(seeds, warm[rng.Intn(len(warm))])
	for len(seeds) < c {
		// Pick the client least similar to its nearest seed.
		best, bestScore := -1, math.Inf(1)
		for _, ci := range warm {
			taken := false
			for _, s := range seeds {
				if s == ci {
					taken = true
					break
				}
			}
			if taken {
				continue
			}
			nearest := math.Inf(-1)
			for _, s := range seeds {
				sim := cosine(a.updates[ci], a.updates[s])
				if sim > nearest {
					nearest = sim
				}
			}
			if nearest < bestScore {
				best, bestScore = ci, nearest
			}
		}
		if best == -1 {
			break
		}
		seeds = append(seeds, best)
	}
	clusters := make([][]int, len(seeds))
	for _, ci := range warm {
		bestSeed, bestSim := 0, math.Inf(-1)
		for si, s := range seeds {
			sim := cosine(a.updates[ci], a.updates[s])
			if sim > bestSim {
				bestSeed, bestSim = si, sim
			}
		}
		clusters[bestSeed] = append(clusters[bestSeed], ci)
	}
	return clusters
}

func cosine(x, y nn.ParamVector) float64 {
	nx, ny := x.Norm(), y.Norm()
	if nx == 0 || ny == 0 {
		return 0
	}
	return x.Dot(y) / (nx * ny)
}

// Round trains the selected clients FedAvg-style on the worker pool and
// remembers each client's update direction for future clustering (the
// gradient memory is refreshed in selection order during the reduce).
// Both the memory and the aggregation see only wire-visible vectors: a
// straggler contributes to neither, exactly as a server that never
// received the upload.
func (a *CluSamp) Round(r int, selected []int) error {
	uploads, weights, clients, recv, err := a.trainSelected(selected, a.cfg.LocalSpec())
	if err != nil {
		return fmt.Errorf("baselines: clusamp round %d: %w", r, err)
	}
	if len(uploads) == 0 {
		return nil
	}
	if a.cfg.BelowQuorum(len(uploads)) {
		return nil // degraded round: keep the model and the gradient memory
	}
	for j, up := range uploads {
		a.updates[clients[j]] = up.Sub(recv)
	}
	a.global, err = reduce(a.cfg, a.global, uploads, weights)
	if err != nil {
		return fmt.Errorf("baselines: clusamp round %d: %w", r, err)
	}
	return nil
}

// RoundComm implements fl.Algorithm: FedAvg traffic.
func (a *CluSamp) RoundComm(k int) fl.CommProfile {
	return fl.CommProfile{ModelsDown: k, ModelsUp: k}
}
