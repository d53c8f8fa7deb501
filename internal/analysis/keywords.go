package analysis

import (
	"dropzero/internal/core"
	"dropzero/internal/names"
)

// KeywordShares is the §4.4 companion analysis to Figure 8: per delay
// interval, the share of re-registered names containing commercial keywords
// and English dictionary words. The paper observes the same effect as for
// domain age — word-rich names peak in the earliest intervals — at slightly
// different interval positions.
type KeywordShares struct {
	Intervals []core.Interval
	// KeywordRich[i] is the share of interval i's domains whose label
	// contains at least one commercial keyword.
	KeywordRich []float64
	// DictionaryRich[i] is the share containing at least one dictionary
	// word.
	DictionaryRich []float64
	// MeanKeywords[i] is the mean keyword count per name.
	MeanKeywords []float64
}

// KeywordAnalysis computes the interval shares.
func (a *Analysis) KeywordAnalysis() KeywordShares {
	ivs := core.BuildIntervals(core.AllDelays(a.Days), Horizon24h, a.minIntervalCount())
	ks := KeywordShares{
		Intervals:      ivs,
		KeywordRich:    make([]float64, len(ivs)),
		DictionaryRich: make([]float64, len(ivs)),
		MeanKeywords:   make([]float64, len(ivs)),
	}
	for i, iv := range ivs {
		if iv.Count() == 0 {
			continue
		}
		kw, dict, kwSum := 0, 0, 0
		for _, d := range iv.Items {
			nkw := names.KeywordCount(d.Obs.Name())
			kwSum += nkw
			if nkw > 0 {
				kw++
			}
			if names.DictionaryCount(d.Obs.Name()) > 0 {
				dict++
			}
		}
		n := float64(iv.Count())
		ks.KeywordRich[i] = float64(kw) / n
		ks.DictionaryRich[i] = float64(dict) / n
		ks.MeanKeywords[i] = float64(kwSum) / n
	}
	return ks
}

// EarlyVsLate compares the first interval's share against the mean of the
// remaining intervals; positive means word-rich names concentrate at the
// earliest delays.
func EarlyVsLate(series []float64) (early, lateMean float64) {
	if len(series) == 0 {
		return 0, 0
	}
	early = series[0]
	if len(series) == 1 {
		return early, 0
	}
	sum := 0.0
	for _, v := range series[1:] {
		sum += v
	}
	return early, sum / float64(len(series)-1)
}
