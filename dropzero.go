// Package dropzero reproduces the measurement system of "From Deletion to
// Re-Registration in Zero Seconds: Domain Registrar Behaviour During the
// Drop" (Lauinger et al., IMC 2018): a registry-ecosystem simulator that
// deletes expired domains in a predictable order during a daily Drop, the
// paper's data-collection pipeline (pending-delete lists, RDAP with WHOIS
// fallback, a maliciousness oracle), and the paper's analytical core — the
// minimum-envelope model of the earliest possible re-registration instant,
// the re-registration delay metric, the drop-catch classifier, and the
// adaptive delay-interval market-share analyses.
//
// The package is a facade: it re-exports the user-facing types of the
// internal packages so applications need a single import.
//
//	res, err := dropzero.Run(dropzero.DefaultConfig())
//	a := dropzero.NewAnalysis(dropzero.AnalysisInputFromResult(res))
//	fmt.Print(a.BuildReport())
package dropzero

import (
	"dropzero/internal/analysis"
	"dropzero/internal/cluster"
	"dropzero/internal/core"
	"dropzero/internal/measure"
	"dropzero/internal/model"
	"dropzero/internal/sim"
	"dropzero/internal/simtime"
	"io"
)

// Core data types.
type (
	// Observation is one dataset row: a pending-delete domain, its prior
	// registration metadata, and any observed re-registration. Rows are
	// packed values read through accessor methods (Name, DeleteDay,
	// PriorUpdated, Reregistered, ReregTime, …) and compared with Equal; a
	// dataset is one []Observation.
	Observation = model.Observation
	// PriorRegistration is the expiring registration's metadata, as
	// NewObservation takes it and Observation.Prior returns it.
	PriorRegistration = model.PriorRegistration
	// Rereg is an observed re-registration event (NewObservation's input).
	Rereg = model.Rereg
	// Registrar is one ICANN accreditation with its contact record.
	Registrar = model.Registrar
	// Day is a UTC calendar day (the unit of the Drop).
	Day = simtime.Day
)

// The paper's analytical core.
type (
	// Envelope is a deletion day's minimum-envelope curve (§4.2).
	Envelope = core.Envelope
	// EnvelopeConfig parameterises envelope construction.
	EnvelopeConfig = core.EnvelopeConfig
	// Ranked is an observation with its deletion-order rank; it points into
	// the dataset slice it was ranked from.
	Ranked = core.Ranked
	// DelayResult is the delay metric for one re-registered domain.
	DelayResult = core.DelayResult
	// DayAnalysis bundles one day's ranked domains, envelope and delays.
	DayAnalysis = core.DayAnalysis
	// Classifier labels re-registrations as drop-catch (delay ≤ 3 s).
	Classifier = core.Classifier
	// Interval is one adaptive delay interval (§4.4).
	Interval = core.Interval
	// Ordering is a candidate deletion-order key (§4.1).
	Ordering = core.Ordering
)

// Simulation and analysis entry points.
type (
	// Config parameterises a full measurement study.
	Config = sim.Config
	// Result is a completed study: dataset, ground truth, ecosystem.
	Result = sim.Result
	// Analysis generates the paper's figures from a dataset.
	Analysis = analysis.Analysis
	// AnalysisInput is the data an Analysis consumes.
	AnalysisInput = analysis.Input
	// Report bundles every figure and in-text statistic.
	Report = analysis.Report
)

// DropCatchMaxDelay is the paper's drop-catch threshold (3 s).
const DropCatchMaxDelay = core.DropCatchMaxDelay

// DefaultConfig returns the experiment harness configuration: a 56-day
// study at one tenth of the paper's daily deletion volume.
func DefaultConfig() Config { return sim.DefaultConfig() }

// Run executes a full simulated measurement study.
func Run(cfg Config) (*Result, error) { return sim.Run(cfg) }

// NewAnalysis prepares the per-day analyses and registrar clustering.
func NewAnalysis(in AnalysisInput) *Analysis { return analysis.New(in) }

// AnalysisInputFromResult adapts a simulation result for analysis, wiring
// ground truth for the accuracy ablations and operator names for display.
func AnalysisInputFromResult(res *Result) AnalysisInput {
	return AnalysisInput{
		Observations: res.Observations,
		Registrars:   res.Registrars,
		ServiceOf:    res.Directory.ServiceOf,
		Deletions:    res.Deletions,
		Parallelism:  res.Config.Parallelism,
	}
}

// NewObservation packs one dataset row; rereg is nil when the name was not
// re-registered. Values a row cannot hold exactly (a registrar ID beyond 32
// bits) are an error; instants are kept at second precision.
func NewObservation(name string, deleteDay Day, prior PriorRegistration, rereg *Rereg, malicious bool) (Observation, error) {
	return model.NewObservation(name, deleteDay, prior, rereg, malicious)
}

// Rank sorts one deletion day's observations by the inferred deletion order
// (last-updated time, ties broken by domain ID) and assigns ranks. The
// result points into obs.
func Rank(obs []Observation) []Ranked { return core.Rank(obs, core.OrderLastUpdate) }

// BuildEnvelope computes a day's minimum-envelope curve from ranked
// observations (§4.2).
func BuildEnvelope(ranked []Ranked, cfg EnvelopeConfig) (*Envelope, error) {
	return core.BuildEnvelope(ranked, cfg)
}

// DefaultEnvelopeConfig returns the paper's envelope parameters (one-minute
// tail truncation).
func DefaultEnvelopeConfig() EnvelopeConfig { return core.DefaultEnvelopeConfig() }

// AnalyzeDay runs ranking, envelope construction and delay computation for
// one deletion day.
func AnalyzeDay(day Day, obs []Observation, cfg EnvelopeConfig) (*DayAnalysis, error) {
	return core.AnalyzeDay(day, obs, cfg)
}

// AnalyzeAll runs AnalyzeDay over a multi-day dataset, skipping days whose
// envelope cannot be built.
func AnalyzeAll(obs []Observation, cfg EnvelopeConfig) ([]*DayAnalysis, int) {
	return core.AnalyzeAll(obs, cfg)
}

// NewClassifier returns the paper's drop-catch classifier (3 s threshold,
// 19:00–20:00 window heuristic).
func NewClassifier() *Classifier { return core.NewClassifier() }

// ClusterRegistrars groups accreditations into operator clusters by shared
// contact details.
func ClusterRegistrars(regs []Registrar) *cluster.Clusters { return cluster.Build(regs) }

// WriteCSV persists a dataset in the canonical CSV layout.
func WriteCSV(w io.Writer, obs []Observation) error { return measure.WriteCSV(w, obs) }

// ReadCSV loads a dataset written by WriteCSV; a file WriteCSV could not have
// written is refused.
func ReadCSV(r io.Reader) ([]Observation, error) { return measure.ReadCSV(r) }
