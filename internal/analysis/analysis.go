// Package analysis turns a measured dataset into the paper's evaluation:
// one generator per figure (1–8) plus the in-text statistics (envelope
// quality, heuristic comparison, Drop durations, maliciousness) and the
// simulator-only ablations (inference accuracy against ground truth, the
// deletion-order search, scale sensitivity).
//
// Generators return plain data structs so the benchmark harness, the
// experiment reporter and the tests all consume the same numbers; Render*
// helpers format them as text for the terminal.
package analysis

import (
	"sort"
	"strings"
	"time"

	"dropzero/internal/cluster"
	"dropzero/internal/core"
	"dropzero/internal/model"
	"dropzero/internal/par"
	"dropzero/internal/registrars"
	"dropzero/internal/simtime"
)

// Input is everything the analyses consume. Observations and Registrars are
// measurable in the real world; the remaining fields are simulator ground
// truth used only by ablations and display naming.
type Input struct {
	Observations []model.Observation
	// Registrars is the public accreditation directory (contacts included),
	// the input to the registrar clustering.
	Registrars []model.Registrar
	// MinIntervalCount is the §4.4 minimum interval population. The paper
	// uses 8 000 at full scale; scale it with the dataset.
	MinIntervalCount int
	// ServiceOf optionally maps an accreditation to its ground-truth
	// operator. When set, cluster display names use operator names instead
	// of normalised organisation strings. Never used to form clusters.
	ServiceOf func(ianaID int) string
	// Deletions is the simulator's ground-truth event log for the
	// inference-accuracy ablation; nil outside simulations.
	Deletions map[simtime.Day][]model.DeletionEvent
	// Parallelism bounds the worker pool behind the independent figure
	// generators (the Figure 4 panels, the per-cluster CDFs); 0 defaults to
	// GOMAXPROCS, 1 is sequential. Outputs are identical at every setting.
	Parallelism int
}

// Analysis carries the shared intermediate state the figure generators
// reuse: the per-day core analyses and the registrar clustering.
type Analysis struct {
	in       Input
	Days     []*core.DayAnalysis
	Skipped  int
	Clusters *cluster.Clusters
	names    map[string]string // cluster label → display name
}

// New prepares an Analysis over the input. It runs the §4.1–4.2 pipeline
// for every deletion day and clusters the registrars.
func New(in Input) *Analysis {
	a := &Analysis{in: in}
	a.Days, a.Skipped = core.AnalyzeAll(in.Observations, core.DefaultEnvelopeConfig())
	a.Clusters = cluster.Build(in.Registrars)
	a.names = make(map[string]string)
	switch {
	case in.ServiceOf != nil:
		// Name each cluster by the operator that holds the majority of its
		// accreditations (presentation only; clustering is contact-based).
		for _, label := range a.Clusters.Labels() {
			counts := make(map[string]int)
			for _, id := range a.Clusters.Members(label) {
				counts[in.ServiceOf(id)]++
			}
			best, bestN := label, -1
			keys := make([]string, 0, len(counts))
			for k := range counts {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if counts[k] > bestN {
					best, bestN = k, counts[k]
				}
			}
			a.names[label] = best
		}
	default:
		// Without ground truth (dataset loaded from CSV), recognise the
		// well-known operators from their public organisation strings, as
		// the paper names its clusters.
		for _, label := range a.Clusters.Labels() {
			if canon, ok := canonicalService(label); ok {
				a.names[label] = canon
			}
		}
	}
	return a
}

// canonicalTokens maps substrings of normalised organisation names to the
// canonical operator names used across the figures.
var canonicalTokens = []struct{ token, service string }{
	{"dropcatch", registrars.SvcDropCatch},
	{"snapnames", registrars.SvcSnapNames},
	{"pheenix", registrars.SvcPheenix},
	{"xzcom", registrars.SvcXZ},
	{"dynadot", registrars.SvcDynadot},
	{"godaddy", registrars.SvcGoDaddy},
	{"xinnet", registrars.SvcXinnet},
	{"1api", registrars.Svc1API},
}

func canonicalService(normalizedLabel string) (string, bool) {
	squashed := strings.ReplaceAll(normalizedLabel, " ", "")
	for _, c := range canonicalTokens {
		if strings.Contains(squashed, c.token) {
			return c.service, true
		}
	}
	return "", false
}

// Input returns the analysis input.
func (a *Analysis) Input() Input { return a.in }

// workers resolves the Parallelism knob.
func (a *Analysis) workers() int { return par.Workers(a.in.Parallelism) }

// ClusterOf returns the display cluster name for an accreditation.
func (a *Analysis) ClusterOf(ianaID int) string {
	label := a.Clusters.LabelOf(ianaID)
	if label == "" {
		return "other"
	}
	if n, ok := a.names[label]; ok {
		return n
	}
	return label
}

// ReregClusterOf returns the cluster of the re-registering accreditation.
func (a *Analysis) ReregClusterOf(d core.DelayResult) string {
	if !d.Obs.Reregistered() {
		return ""
	}
	return a.ClusterOf(d.Obs.ReregRegistrar())
}

// minIntervalCount applies the configured minimum or a dataset-proportional
// default (the paper's 8 000 scaled by dataset size relative to 600 k
// re-registrations).
func (a *Analysis) minIntervalCount() int {
	if a.in.MinIntervalCount > 0 {
		return a.in.MinIntervalCount
	}
	n := len(core.AllDelays(a.Days)) * 8000 / 600000
	if n < 50 {
		n = 50
	}
	return n
}

// Horizon24h is the delay horizon of Figures 5–8.
const Horizon24h = 24 * time.Hour
