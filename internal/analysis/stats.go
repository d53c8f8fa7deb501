package analysis

import (
	"sort"
	"time"

	"dropzero/internal/core"
	"dropzero/internal/simtime"
)

// EnvelopeStats aggregates the §4.2 curve-quality numbers across days.
type EnvelopeStats struct {
	Days         int
	MedianPoints int
	P99GapLEQ3s  float64 // share of days whose 99th-percentile gap is ≤3 s
	MaxGap       time.Duration
	MethodShares map[core.Method]float64
	// CurveFromDropCatch is the share of envelope points made by the two
	// biggest clusters on the curve — the paper's confidence check that
	// nearly all curve points come from drop-catch services.
	CurveFromTop2 float64
}

// EnvelopeQuality computes the aggregate curve statistics.
func (a *Analysis) EnvelopeQuality() EnvelopeStats {
	st := EnvelopeStats{Days: len(a.Days), MethodShares: core.MethodShares(a.Days)}
	if len(a.Days) == 0 {
		return st
	}
	var sizes []int
	okP99 := 0
	top2Points, totalPoints := 0, 0
	for _, d := range a.Days {
		g := d.Envelope.Gaps()
		sizes = append(sizes, g.Points)
		if g.P99Gap <= 3*time.Second {
			okP99++
		}
		if g.MaxGap > st.MaxGap {
			st.MaxGap = g.MaxGap
		}
		counts := core.EnvelopeRegistrars(d.Ranked, d.Envelope)
		byCluster := make(map[string]int)
		for iana, n := range counts {
			byCluster[a.ClusterOf(iana)] += n
			totalPoints += n
		}
		var ns []int
		for _, n := range byCluster {
			ns = append(ns, n)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(ns)))
		for i := 0; i < len(ns) && i < 2; i++ {
			top2Points += ns[i]
		}
	}
	sort.Ints(sizes)
	st.MedianPoints = sizes[(len(sizes)-1)/2]
	st.P99GapLEQ3s = float64(okP99) / float64(len(a.Days))
	if totalPoints > 0 {
		st.CurveFromTop2 = float64(top2Points) / float64(totalPoints)
	}
	return st
}

// HeuristicComparison is the §4.3 evaluation of prior-work heuristics
// against the delay metric.
type HeuristicComparison struct {
	// DropCatchShare is the share of deletion-day re-registrations with
	// delay ≤3 s (paper: 86.1 %).
	DropCatchShare float64
	SameDay        core.HeuristicEval
	DropWindow     core.HeuristicEval
}

// CompareHeuristics runs the comparison over the full dataset.
func (a *Analysis) CompareHeuristics() HeuristicComparison {
	c := core.NewClassifier()
	delays := core.AllDelays(a.Days)
	return HeuristicComparison{
		DropCatchShare: c.DropCatchShare(delays),
		SameDay:        c.Evaluate("same-day", delays, c.SameDayHeuristic),
		DropWindow:     c.Evaluate("drop-window", delays, c.DropWindowHeuristic),
	}
}

// DropDurationRow is one day's estimated Drop duration, measured (as the
// paper does) from the last drop-catch re-registration on the envelope.
type DropDurationRow struct {
	Day     simtime.Day
	Deleted int
	End     time.Time
}

// DropDurations estimates per-day Drop ends and reports the correlation the
// paper observes: the day with the most deletions has the latest end.
type DropDurations struct {
	Rows []DropDurationRow
	// LongestDay/ShortestDay are the days with the latest and earliest
	// estimated ends.
	LongestDay  DropDurationRow
	ShortestDay DropDurationRow
	// VolumeEndCorrelation is the Pearson correlation between daily volume
	// and Drop length in seconds.
	VolumeEndCorrelation float64
}

// EstimateDropDurations builds the §4 Drop-duration analysis.
func (a *Analysis) EstimateDropDurations() DropDurations {
	var d DropDurations
	var vols, lens []float64
	for _, day := range a.Days {
		end := day.Envelope.End()
		row := DropDurationRow{Day: day.Day, Deleted: day.Total, End: end}
		d.Rows = append(d.Rows, row)
		if d.LongestDay.End.IsZero() || end.Sub(row.Day.Start()) > d.LongestDay.End.Sub(d.LongestDay.Day.Start()) {
			d.LongestDay = row
		}
		if d.ShortestDay.End.IsZero() || end.Sub(row.Day.Start()) < d.ShortestDay.End.Sub(d.ShortestDay.Day.Start()) {
			d.ShortestDay = row
		}
		vols = append(vols, float64(day.Total))
		lens = append(lens, end.Sub(row.Day.Start()).Seconds())
	}
	d.VolumeEndCorrelation = core.Pearson(vols, lens)
	return d
}

// MaliciousStats is the §4.4 Safe-Browsing slice.
type MaliciousStats struct {
	// ShareAt0s is the malicious share among 0 s re-registrations
	// (paper: 0.4 %).
	ShareAt0s float64
	// PeakShare30to60s is the malicious share among 30–60 s
	// re-registrations (paper: ≈2 %).
	PeakShare30to60s float64
	// Overall24h is the malicious share among all ≤24 h re-registrations
	// (paper: <0.5 %).
	Overall24h float64
	// MajorityClass reports whether the plurality of malicious domains sit
	// in the 0 s class (the paper's headline).
	MajorityClass string
	Counts        map[string]int
}

// Malicious computes the maliciousness breakdown.
func (a *Analysis) Malicious() MaliciousStats {
	classOf := func(d time.Duration) string {
		switch {
		case d == 0:
			return "0s"
		case d < 30*time.Second:
			return "1-29s"
		case d <= 60*time.Second:
			return "30-60s"
		default:
			return ">60s"
		}
	}
	type agg struct{ mal, all int }
	byClass := make(map[string]*agg)
	overall := agg{}
	malCounts := make(map[string]int)
	for _, d := range core.AllDelays(a.Days) {
		if d.Delay > Horizon24h {
			continue
		}
		cl := classOf(d.Delay)
		if byClass[cl] == nil {
			byClass[cl] = &agg{}
		}
		byClass[cl].all++
		overall.all++
		if d.Obs.Malicious() {
			byClass[cl].mal++
			overall.mal++
			malCounts[cl]++
		}
	}
	share := func(cl string) float64 {
		if b := byClass[cl]; b != nil && b.all > 0 {
			return float64(b.mal) / float64(b.all)
		}
		return 0
	}
	st := MaliciousStats{
		ShareAt0s:        share("0s"),
		PeakShare30to60s: share("30-60s"),
		Counts:           malCounts,
	}
	if overall.all > 0 {
		st.Overall24h = float64(overall.mal) / float64(overall.all)
	}
	best, bestN := "", -1
	for _, cl := range []string{"0s", "1-29s", "30-60s", ">60s"} {
		if malCounts[cl] > bestN {
			best, bestN = cl, malCounts[cl]
		}
	}
	st.MajorityClass = best
	return st
}

// InferenceAccuracy scores the envelope model and the linear-regression
// baseline against the simulator's ground-truth deletion instants — the
// validation the paper could not perform. Only .com events are scored,
// since only they have measured ranks.
type InferenceAccuracy struct {
	Envelope   core.AccuracyStats
	Regression core.AccuracyStats
}

// MeasureInferenceAccuracy requires Input.Deletions (ground truth).
func (a *Analysis) MeasureInferenceAccuracy() *InferenceAccuracy {
	if a.in.Deletions == nil {
		return nil
	}
	var truths []core.Point          // Rank = index, Time = true deletion instant
	var envPred, regPred []time.Time // parallel predictions
	for _, day := range a.Days {
		truthTime := make(map[string]time.Time)
		for _, ev := range a.in.Deletions[day.Day] {
			truthTime[ev.Name()] = ev.Time()
		}
		regr := core.FitRegression(day.Ranked)
		if regr == nil {
			continue
		}
		for _, r := range day.Ranked {
			t, ok := truthTime[r.Obs.Name()]
			if !ok {
				continue
			}
			envT, _ := day.Envelope.EarliestAt(r.Rank)
			truths = append(truths, core.Point{Rank: len(truths), Time: t})
			envPred = append(envPred, envT)
			regPred = append(regPred, regr.PredictAt(r.Rank))
		}
	}
	return &InferenceAccuracy{
		Envelope:   core.Accuracy(truths, func(i int) time.Time { return envPred[i] }),
		Regression: core.Accuracy(truths, func(i int) time.Time { return regPred[i] }),
	}
}
