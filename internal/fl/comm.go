package fl

import "fmt"

// CommProfile counts one round's communication payloads in units of
// model-sized objects, mirroring the paper's Table I analysis. FedAvg,
// FedProx, CluSamp and FedCross all move 2K models per round; SCAFFOLD
// adds 2K control variates (model-sized), FedGen adds K generator
// downloads.
type CommProfile struct {
	// ModelsDown / ModelsUp count model payloads per round.
	ModelsDown, ModelsUp int
	// VarsDown / VarsUp count model-sized auxiliary variables (SCAFFOLD's
	// control variates).
	VarsDown, VarsUp int
	// GeneratorsDown counts generator payloads (FedGen).
	GeneratorsDown int
}

// TotalModelEquivalents returns the round's traffic in model-sized units,
// counting a generator as genFrac of a model (FedGen's generator is
// smaller than the task model; the paper calls its overhead "Medium").
func (p CommProfile) TotalModelEquivalents(genFrac float64) float64 {
	return float64(p.ModelsDown+p.ModelsUp+p.VarsDown+p.VarsUp) + genFrac*float64(p.GeneratorsDown)
}

// Bytes converts the profile to bytes given the encoded model and
// generator sizes.
func (p CommProfile) Bytes(modelBytes, generatorBytes int64) int64 {
	return int64(p.ModelsDown+p.ModelsUp+p.VarsDown+p.VarsUp)*modelBytes +
		int64(p.GeneratorsDown)*generatorBytes
}

// OverheadClass buckets the profile the way Table I does (Low / Medium /
// High) relative to the plain-FedAvg 2K-models baseline.
func (p CommProfile) OverheadClass() string {
	base := p.ModelsDown + p.ModelsUp
	extraVars := p.VarsDown + p.VarsUp
	switch {
	case extraVars >= base:
		return "High"
	case extraVars > 0 || p.GeneratorsDown > 0:
		return "Medium"
	default:
		return "Low"
	}
}

// String renders the profile compactly for reports.
func (p CommProfile) String() string {
	return fmt.Sprintf("down=%dm+%dv+%dg up=%dm+%dv", p.ModelsDown, p.VarsDown, p.GeneratorsDown, p.ModelsUp, p.VarsUp)
}

// Accountant accumulates communication over a run.
type Accountant struct {
	rounds int
	total  CommProfile
}

// Record adds one round's profile.
func (a *Accountant) Record(p CommProfile) {
	a.rounds++
	a.total.ModelsDown += p.ModelsDown
	a.total.ModelsUp += p.ModelsUp
	a.total.VarsDown += p.VarsDown
	a.total.VarsUp += p.VarsUp
	a.total.GeneratorsDown += p.GeneratorsDown
}

// Total returns the accumulated profile.
func (a *Accountant) Total() CommProfile { return a.total }
