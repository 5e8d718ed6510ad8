// Package fedcross is the public API of the FedCross reproduction: a
// federated-learning simulation library implementing the multi-model
// cross-aggregation training scheme of "FedCross: Towards Accurate
// Federated Learning via Multi-Model Cross-Aggregation" (Hu et al., ICDE
// 2024) together with the five baselines it is evaluated against, a
// from-scratch neural-network substrate, synthetic federated datasets,
// loss-landscape analysis, and per-table/figure experiment harnesses.
//
// Quick start:
//
//	env, _ := fedcross.TinyProfile().BuildEnv("vision10", "cnn",
//	    fedcross.Heterogeneity{Beta: 0.5}, 1)
//	algo, _ := fedcross.NewFedCross(fedcross.DefaultFedCrossOptions())
//	hist, _ := fedcross.Run(algo, env, fedcross.TinyProfile().Config(1))
//	fmt.Printf("final accuracy: %.4f\n", hist.Final().TestAcc)
//
// Each round's client-local training fans out across all CPU cores by
// default. Config.Parallelism caps the worker pool (1 forces serial
// execution); every setting produces bit-identical results because each
// client's RNG stream is split from the simulation seed before dispatch.
//
// The package re-exports the stable surface of the internal packages via
// type aliases, so all methods documented there apply unchanged.
package fedcross

import (
	"fedcross/internal/baselines"
	"fedcross/internal/core"
	"fedcross/internal/data"
	"fedcross/internal/experiments"
	"fedcross/internal/fl"
	"fedcross/internal/landscape"
	"fedcross/internal/models"
	"fedcross/internal/nn"
	"fedcross/internal/theory"
)

// --- simulation substrate --------------------------------------------------

// Algorithm is the pluggable FL method interface; see fl.Algorithm.
type Algorithm = fl.Algorithm

// Config holds round-level hyper-parameters; see fl.Config.
type Config = fl.Config

// Env couples a federated dataset with a model architecture; see fl.Env.
type Env = fl.Env

// History is a run's metric record; see fl.History.
type History = fl.History

// RoundMetric is one evaluated round; see fl.RoundMetric.
type RoundMetric = fl.RoundMetric

// CommProfile counts per-round communication payloads; see fl.CommProfile.
type CommProfile = fl.CommProfile

// TransportOptions selects the simulated wire (codec, link model, round
// deadline); see fl.TransportOptions. Set it via Config.Transport.
type TransportOptions = fl.TransportOptions

// NetworkModel describes simulated per-client link conditions; see
// fl.NetworkModel.
type NetworkModel = fl.NetworkModel

// NetworkByName resolves a link model from its flag spelling ("none",
// "fiber", "wifi", "lte", "edge").
func NetworkByName(name string) (NetworkModel, error) { return fl.NetworkByName(name) }

// Codec is the model-payload compression interface; see nn.Codec.
type Codec = nn.Codec

// CodecByName resolves a codec from its flag spelling ("identity",
// "fp16", "int8", "topk[:frac]").
func CodecByName(name string) (Codec, error) { return nn.CodecByName(name) }

// ParamVector is a flattened model parameter vector; see nn.ParamVector.
type ParamVector = nn.ParamVector

// Heterogeneity names a client data-distribution setting (IID or Dir(β));
// see data.Heterogeneity.
type Heterogeneity = data.Heterogeneity

// Federated couples client shards with a shared test set; see
// data.Federated.
type Federated = data.Federated

// ModelFactory constructs fresh model instances; see models.Factory.
type ModelFactory = models.Factory

// DefaultConfig returns the paper-mirroring runner configuration at test
// scale.
func DefaultConfig() Config { return fl.DefaultConfig() }

// Run executes a full FL simulation and returns its metric history.
func Run(algo Algorithm, env *Env, cfg Config) (*History, error) {
	return fl.Run(algo, env, cfg)
}

// --- FedCross (the paper's contribution) -----------------------------------

// FedCross is the multi-model cross-aggregation algorithm; see
// core.FedCross.
type FedCross = core.FedCross

// FedCrossOptions configures FedCross; see core.Options.
type FedCrossOptions = core.Options

// Strategy names a collaborative-model selection criterion.
type Strategy = core.Strategy

// Selection strategies (Section III-B.1 of the paper).
const (
	InOrder           = core.InOrder
	HighestSimilarity = core.HighestSimilarity
	LowestSimilarity  = core.LowestSimilarity
)

// AccelMode selects a training-acceleration method (Section III-D).
type AccelMode = core.AccelMode

// Acceleration modes.
const (
	AccelNone         = core.AccelNone
	AccelPropeller    = core.AccelPropeller
	AccelDynamicAlpha = core.AccelDynamicAlpha
	AccelBoth         = core.AccelBoth
)

// DefaultFedCrossOptions mirrors the paper's recommended setting
// (α = 0.99, lowest-similarity selection).
func DefaultFedCrossOptions() FedCrossOptions { return core.DefaultOptions() }

// NewFedCross constructs a FedCross instance.
func NewFedCross(opts FedCrossOptions) (*FedCross, error) { return core.New(opts) }

// CosineSimilarity is the default model-similarity measure.
func CosineSimilarity(a, b ParamVector) float64 { return core.CosineSimilarity(a, b) }

// SimilarityMeasure couples a pairwise similarity with the fused form the
// per-round Gram pass uses; see core.Measure.
type SimilarityMeasure = core.Measure

// CosineMeasure is the default similarity measure (what the paper names).
func CosineMeasure() SimilarityMeasure { return core.CosineMeasure() }

// PaperMeasure is the paper's printed sum-of-norms formula.
func PaperMeasure() SimilarityMeasure { return core.PaperMeasure() }

// EuclideanMeasure is negated L2 distance.
func EuclideanMeasure() SimilarityMeasure { return core.EuclideanMeasure() }

// SimilarityByName resolves a measure for flags ("cosine", "paper",
// "euclidean").
func SimilarityByName(name string) (SimilarityMeasure, error) {
	return core.SimilarityByName(name)
}

// CrossAggr fuses a model with its collaborative model:
// α·v + (1−α)·v_co.
func CrossAggr(v, vco ParamVector, alpha float64) ParamVector {
	return core.CrossAggr(v, vco, alpha)
}

// GlobalModelGen averages middleware models into the deployment model.
func GlobalModelGen(w []ParamVector) ParamVector { return core.GlobalModelGen(w) }

// --- baselines ---------------------------------------------------------------

// NewFedAvg returns the classic FedAvg baseline.
func NewFedAvg() Algorithm { return baselines.NewFedAvg() }

// NewFedProx returns the FedProx baseline with proximal coefficient mu.
func NewFedProx(mu float64) (Algorithm, error) { return baselines.NewFedProx(mu) }

// NewSCAFFOLD returns the SCAFFOLD baseline.
func NewSCAFFOLD() Algorithm { return baselines.NewSCAFFOLD() }

// NewFedGen returns the FedGen (data-free distillation) baseline.
func NewFedGen() Algorithm { return baselines.NewFedGen() }

// NewCluSamp returns the clustered-sampling baseline.
func NewCluSamp() Algorithm { return baselines.NewCluSamp() }

// NewAlgorithm builds any of the six methods by name ("fedavg",
// "fedprox", "scaffold", "fedgen", "clusamp", "fedcross").
func NewAlgorithm(name string) (Algorithm, error) { return experiments.NewAlgorithm(name) }

// AlgorithmNames lists the six methods in Table-I order.
func AlgorithmNames() []string { return experiments.AlgorithmNames() }

// --- experiment harnesses ----------------------------------------------------

// Profile sizes an experiment run; see experiments.Profile.
type Profile = experiments.Profile

// TinyProfile sizes runs for tests and benches (seconds).
func TinyProfile() Profile { return experiments.TinyProfile() }

// SmallProfile sizes the runnable examples (minutes).
func SmallProfile() Profile { return experiments.SmallProfile() }

// PaperProfile mirrors the paper's relative setup (N=100, K=10, E=5,
// B=50).
func PaperProfile() Profile { return experiments.PaperProfile() }

// DatasetNames lists the five evaluation datasets.
func DatasetNames() []string { return experiments.DatasetNames() }

// Grid is a declared sweep — a base cell, ordered named axes and the
// counters to print; see experiments.Grid.
type Grid = experiments.Grid

// GridResult holds a grid's runs, one history per cell, and renders them
// as one table; see experiments.GridResult.
type GridResult = experiments.GridResult

// GridPreset returns a system sweep over the profile, the ones
// cmd/fedsim runs: "comm" (wire codecs), "robust" (attacker fraction ×
// reducer), "async" (buffer × in-flight), "faults" (fault level) or
// "churn" (availability). Change what it sweeps with Grid.Sweep.
func GridPreset(name string, p Profile) (Grid, error) { return experiments.GridPreset(name, p) }

// RunGrid runs every cell of the grid on identical environments.
func RunGrid(g Grid) (*GridResult, error) { return experiments.RunGrid(g) }

// --- robust aggregation and Byzantine clients --------------------------------

// Reducer is the pluggable server-side aggregation rule every algorithm
// folds its uploads through; see fl.Reducer. A nil Config.Reducer is the
// weighted mean (nil ≡ "mean", relations row reducer).
type Reducer = fl.Reducer

// KrumReducer is the Krum / Multi-Krum geometric selection rule, built on
// the fused similarity-matrix kernel; see core.KrumReducer.
type KrumReducer = core.KrumReducer

// ReducerByName resolves an aggregation rule from its flag spelling:
// "mean", "median", "trimmed[:frac]", "krum[:f]", "multikrum[:f[:m]]".
// Each call returns a fresh instance, safe to hand to one concurrent run.
func ReducerByName(name string) (Reducer, error) { return core.ReducerByName(name) }

// ReduceUploads validates a cohort (ragged uploads, weight mismatches,
// non-finite vectors) and applies the rule; nil means the weighted mean.
func ReduceUploads(r Reducer, uploads []ParamVector, weights []float64) (ParamVector, error) {
	return fl.ReduceUploads(r, uploads, weights)
}

// AdversaryOptions injects Byzantine clients into a run; see
// fl.AdversaryOptions. Set it via Config.Adversary.
type AdversaryOptions = fl.AdversaryOptions

// Byzantine attack behaviours.
const (
	AttackNone      = fl.AttackNone
	AttackLabelFlip = fl.AttackLabelFlip
	AttackSignFlip  = fl.AttackSignFlip
	AttackScale     = fl.AttackScale
	AttackCollude   = fl.AttackCollude
)

// AsyncOptions configures the buffered-async (FedBuff-style) engine; see
// fl.AsyncOptions.
type AsyncOptions = fl.AsyncOptions

// RunAsync executes a buffered-async federation: clients train on
// snapshots of the global model and the server folds staleness-weighted
// arrivals, committing every Buffer-th one. Histories are byte-identical
// at every Config.Parallelism for a fixed seed.
func RunAsync(env *Env, cfg Config, opts AsyncOptions) (*History, error) {
	return fl.RunAsync(env, cfg, opts)
}

// --- analysis ----------------------------------------------------------------

// LandscapeGrid is a 2-D loss-surface slice; see landscape.Grid.
type LandscapeGrid = landscape.Grid

// LandscapeOptions configures a scan; see landscape.Options.
type LandscapeOptions = landscape.Options

// ScanLandscape evaluates the loss surface around a model (Figure 4).
func ScanLandscape(factory ModelFactory, vec ParamVector, ds *data.Dataset, opts LandscapeOptions) (*LandscapeGrid, error) {
	return landscape.Scan2D(factory, vec, ds, opts)
}

// Sharpness measures loss-surface curvature around a model; lower is
// flatter.
func Sharpness(factory ModelFactory, vec ParamVector, ds *data.Dataset, radius float64, nDirs int, seed int64) (float64, error) {
	return landscape.Sharpness(factory, vec, ds, radius, nDirs, seed, fl.Workers{})
}

// ConvergenceAssumptions carries the Theorem-1 constants; see
// theory.Assumptions.
type ConvergenceAssumptions = theory.Assumptions

// --- deployment utilities ------------------------------------------------

// PrivacyOptions configures the local-DP release mechanism; see
// fl.PrivacyOptions.
type PrivacyOptions = fl.PrivacyOptions

// WithPrivacy wraps an algorithm so every released global model is
// clipped and Gaussian-noised (the Section IV-F1 composition argument).
func WithPrivacy(algo Algorithm, opts PrivacyOptions) (Algorithm, error) {
	return fl.WithPrivacy(algo, opts)
}

// PerClientReport summarises per-client accuracy and fairness; see
// fl.PerClientReport.
type PerClientReport = fl.PerClientReport

// EvaluatePerClient measures a model on every client's local data across
// at most workers goroutines (0 means every core, the same convention as
// Config.Parallelism). Results are identical at every worker count.
func EvaluatePerClient(env *Env, vec ParamVector, batchSize, workers int) (*PerClientReport, error) {
	return fl.EvaluatePerClient(env, vec, batchSize, fl.Limit(workers))
}
