package core

import (
	"sort"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// DelayResult is the paper's central measurement for one re-registered
// domain: the difference between its observed re-registration time and the
// inferred earliest possible instant.
type DelayResult struct {
	Obs      *model.Observation
	Rank     int
	Earliest time.Time
	Method   Method
	// Delay is observed − earliest. The envelope guarantees it is ≥ 0 for
	// same-day re-registrations on the curve; interpolation can produce
	// small negative values, which are clamped to zero like any measurement
	// of "earlier than possible" must be.
	Delay time.Duration
}

// DayAnalysis bundles everything derived from one deletion day.
type DayAnalysis struct {
	Day      simtime.Day
	Ranked   []Ranked
	Envelope *Envelope
	// Delays holds one entry per re-registered domain (any delay horizon);
	// domains never re-registered do not appear.
	Delays []DelayResult
	// Total is the number of domains deleted that day (list size).
	Total int
	// MethodCounts tallies how each earliest time was derived.
	MethodCounts map[Method]int
}

// AnalyzeDay runs the full §4.1–§4.2 pipeline for one deletion day's
// observations: rank by the inferred deletion order, build the minimum
// envelope, and compute a delay for every re-registered domain. The result
// points into obs.
func AnalyzeDay(day simtime.Day, obs []model.Observation, cfg EnvelopeConfig) (*DayAnalysis, error) {
	return analyzeRanked(day, Rank(obs, OrderLastUpdate), cfg)
}

// analyzeRanked is AnalyzeDay over a day already ranked by OrderLastUpdate.
func analyzeRanked(day simtime.Day, ranked []Ranked, cfg EnvelopeConfig) (*DayAnalysis, error) {
	env, err := BuildEnvelope(ranked, cfg)
	if err != nil {
		return nil, err
	}
	da := &DayAnalysis{
		Day:          day,
		Ranked:       ranked,
		Envelope:     env,
		Total:        len(ranked),
		MethodCounts: make(map[Method]int),
	}
	for _, r := range ranked {
		if !r.Obs.Reregistered() {
			continue
		}
		earliest, method := env.EarliestAt(r.Rank)
		delay := r.Obs.ReregTime().Sub(earliest)
		if delay < 0 {
			delay = 0
		}
		da.MethodCounts[method]++
		da.Delays = append(da.Delays, DelayResult{
			Obs:      r.Obs,
			Rank:     r.Rank,
			Earliest: earliest,
			Method:   method,
			Delay:    delay,
		})
	}
	return da, nil
}

// AnalyzeAll runs AnalyzeDay for every deletion day in the dataset. Days
// whose envelope cannot be built (no same-day re-registrations) are skipped;
// the number skipped is returned.
func AnalyzeAll(obs []model.Observation, cfg EnvelopeConfig) ([]*DayAnalysis, int) {
	var out []*DayAnalysis
	skipped := 0
	for _, g := range GroupByDay(obs, OrderLastUpdate) {
		da, err := analyzeRanked(g.Day, g.Ranked, cfg)
		if err != nil {
			skipped++
			continue
		}
		out = append(out, da)
	}
	return out, skipped
}

// AllDelays flattens the per-day results into a single slice.
func AllDelays(days []*DayAnalysis) []DelayResult {
	var n int
	for _, d := range days {
		n += len(d.Delays)
	}
	out := make([]DelayResult, 0, n)
	for _, d := range days {
		out = append(out, d.Delays...)
	}
	return out
}

// TotalDeleted sums the deleted-domain counts over all analysed days.
func TotalDeleted(days []*DayAnalysis) int {
	n := 0
	for _, d := range days {
		n += d.Total
	}
	return n
}

// DelayCDF evaluates the fraction of deleted domains re-registered with a
// delay ≤ each threshold. The denominator is the number of *deleted*
// domains (not re-registered ones): the paper's Figure 5 reports, e.g.,
// 9.5 % of all deleted domains at 0 s.
func DelayCDF(days []*DayAnalysis, horizon time.Duration, thresholds []time.Duration) []float64 {
	total := TotalDeleted(days)
	if total == 0 {
		return make([]float64, len(thresholds))
	}
	delays := make([]time.Duration, 0)
	for _, d := range AllDelays(days) {
		if d.Delay <= horizon {
			delays = append(delays, d.Delay)
		}
	}
	sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
	out := make([]float64, len(thresholds))
	for i, th := range thresholds {
		n := sort.Search(len(delays), func(k int) bool { return delays[k] > th })
		out[i] = float64(n) / float64(total)
	}
	return out
}

// MethodShares aggregates the earliest-time derivation mix over days,
// returning fractions that sum to 1 over all re-registered domains.
func MethodShares(days []*DayAnalysis) map[Method]float64 {
	counts := make(map[Method]int)
	total := 0
	for _, d := range days {
		for m, c := range d.MethodCounts {
			counts[m] += c
			total += c
		}
	}
	out := make(map[Method]float64, len(counts))
	if total == 0 {
		return out
	}
	for m, c := range counts {
		out[m] = float64(c) / float64(total)
	}
	return out
}
