package data

import (
	"fmt"

	"fedcross/internal/tensor"
)

// DirichletPartition splits src across numClients shards using the
// Dir(beta) label-skew scheme of Hsu et al. (the paper's heterogeneity
// control): for every class, a Dirichlet draw decides what fraction of
// that class each client receives. Smaller beta means more skew. Every
// sample is assigned to exactly one client; clients that would end up
// empty are topped up with one sample stolen from the largest shard so
// every client can train.
// Both eager partitioners are thin wrappers over the Assignment metadata
// builders (assignment.go): compute boundaries once, then materialize
// every shard. The split keeps one RNG-consumption order shared with the
// Lazy client source, which is what makes eager and lazy federations
// bit-identical for the same partition seed.
func DirichletPartition(src *Dataset, numClients int, beta float64, rng *tensor.RNG) []*Dataset {
	return AssignDirichlet(src.Y, src.Classes, numClients, beta, rng).Materialize(src)
}

// IIDPartition deals the (shuffled) samples round-robin so each client
// receives an equally sized, class-balanced shard.
func IIDPartition(src *Dataset, numClients int, rng *tensor.RNG) []*Dataset {
	return AssignIID(src.Len(), numClients, rng).Materialize(src)
}

// Heterogeneity names a client-data distribution setting, mirroring the
// paper's Table II third column.
type Heterogeneity struct {
	// IID selects the uniform split; when false, Beta drives Dir(β).
	IID bool
	// Beta is the Dirichlet concentration for non-IID splits.
	Beta float64
}

// String renders the setting the way the paper's tables do.
func (h Heterogeneity) String() string {
	if h.IID {
		return "IID"
	}
	return fmt.Sprintf("beta=%.1f", h.Beta)
}
