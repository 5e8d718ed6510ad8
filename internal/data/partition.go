package data

import "fmt"

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
