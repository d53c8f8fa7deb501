package analysis

import (
	"slices"
	"sort"
	"time"

	"dropzero/internal/core"
	"dropzero/internal/par"
)

// Fig5 is the delay CDF over the 24 h after deletion, as shares of all
// deleted domains.
type Fig5 struct {
	// Thresholds and Pct are parallel: Pct[i] is the share of deleted
	// domains re-registered with delay ≤ Thresholds[i], in percent.
	Thresholds []time.Duration
	Pct        []float64
	Stats      Fig5Stats
}

// Fig5Stats carries the §4.3 headline numbers.
type Fig5Stats struct {
	PctAt0s      float64 // paper: ≈9.5 %
	PctAt30s     float64
	PctAt24h     float64 // paper: ≈13 %
	PctAt3h      float64
	PctAt8h      float64
	Rise3hTo8h   float64 // paper: ≈1 percentage point
	Reregs24h    int
	TotalDeleted int
}

// Fig5CDF builds Figure 5.
func (a *Analysis) Fig5CDF() Fig5 {
	var thresholds []time.Duration
	// Second resolution for the first 2.5 minutes (the inset), then coarser.
	for s := 0; s <= 150; s++ {
		thresholds = append(thresholds, time.Duration(s)*time.Second)
	}
	for m := 3; m <= 60; m++ {
		thresholds = append(thresholds, time.Duration(m)*time.Minute)
	}
	for h := 2; h <= 24; h++ {
		thresholds = append(thresholds, time.Duration(h)*time.Hour)
	}
	pct := core.DelayCDF(a.Days, Horizon24h, thresholds)
	f := Fig5{Thresholds: thresholds, Pct: make([]float64, len(pct))}
	for i, p := range pct {
		f.Pct[i] = 100 * p
	}
	at := func(d time.Duration) float64 {
		for i, th := range thresholds {
			if th == d {
				return f.Pct[i]
			}
		}
		return 0
	}
	f.Stats = Fig5Stats{
		PctAt0s:      at(0),
		PctAt30s:     at(30 * time.Second),
		PctAt24h:     at(24 * time.Hour),
		PctAt3h:      at(3 * time.Hour),
		PctAt8h:      at(8 * time.Hour),
		TotalDeleted: core.TotalDeleted(a.Days),
	}
	f.Stats.Rise3hTo8h = f.Stats.PctAt8h - f.Stats.PctAt3h
	for _, d := range core.AllDelays(a.Days) {
		if d.Delay <= Horizon24h {
			f.Stats.Reregs24h++
		}
	}
	return f
}

// Fig6Curve is one registrar cluster's delay CDF, relative to its own
// re-registrations within 24 h of deletion.
type Fig6Curve struct {
	Cluster    string
	Thresholds []time.Duration
	// Pct[i] is the share of the cluster's ≤24 h re-registrations with
	// delay ≤ Thresholds[i], in percent.
	Pct []float64
	N   int
	// Median is the cluster's median delay (paper: 1API ≈26 min).
	Median time.Duration
	// MinDelay is the smallest observed delay (paper: 1API ≥30 s).
	MinDelay time.Duration
}

// PctAt returns the curve value at a threshold (0 when absent).
func (c *Fig6Curve) PctAt(d time.Duration) float64 {
	for i, th := range c.Thresholds {
		if th == d {
			return c.Pct[i]
		}
	}
	return 0
}

// Fig6ClusterCDFs builds Figure 6 for the named clusters.
func (a *Analysis) Fig6ClusterCDFs(clusters []string) []Fig6Curve {
	var thresholds []time.Duration
	for s := 0; s <= 60; s++ {
		thresholds = append(thresholds, time.Duration(s)*time.Second)
	}
	for m := 2; m <= 90; m++ {
		thresholds = append(thresholds, time.Duration(m)*time.Minute)
	}
	for h := 2; h <= 24; h++ {
		thresholds = append(thresholds, time.Duration(h)*time.Hour)
	}
	byCluster := make(map[string][]time.Duration)
	for _, d := range core.AllDelays(a.Days) {
		if d.Delay > Horizon24h {
			continue
		}
		byCluster[a.ReregClusterOf(d)] = append(byCluster[a.ReregClusterOf(d)], d.Delay)
	}
	// Each cluster's curve sorts and scans only its own delays; build them
	// on the worker pool, output order fixed by the clusters argument.
	return par.Do(a.workers(), len(clusters), func(i int) Fig6Curve {
		cl := clusters[i]
		delays := byCluster[cl]
		slices.Sort(delays)
		curve := Fig6Curve{Cluster: cl, Thresholds: thresholds, Pct: make([]float64, len(thresholds)), N: len(delays)}
		if len(delays) > 0 {
			for i, th := range thresholds {
				n := sort.Search(len(delays), func(k int) bool { return delays[k] > th })
				curve.Pct[i] = 100 * float64(n) / float64(len(delays))
			}
			curve.Median = delays[(len(delays)-1)/2]
			curve.MinDelay = delays[0]
		}
		return curve
	})
}

// Fig7 is the interval market-share analysis by registrar cluster.
type Fig7 struct {
	Intervals []core.Interval
	// Shares[i] lists cluster shares inside interval i, descending.
	Shares [][]core.Share
}

// Fig7MarketShare builds Figure 7.
func (a *Analysis) Fig7MarketShare() Fig7 {
	ivs := core.BuildIntervals(core.AllDelays(a.Days), Horizon24h, a.minIntervalCount())
	return Fig7{
		Intervals: ivs,
		Shares:    core.MarketShare(ivs, func(d core.DelayResult) string { return a.ReregClusterOf(d) }),
	}
}

// ShareIn returns cluster's share in the interval containing delay, and the
// interval bounds.
func (f *Fig7) ShareIn(delay time.Duration, cluster string) (share float64, lo, hi time.Duration) {
	for i, iv := range f.Intervals {
		if delay >= iv.Lo && delay <= iv.Hi {
			return core.ShareOf(f.Shares[i], cluster), iv.Lo, iv.Hi
		}
	}
	return 0, 0, 0
}

// MaxShareWithin reports the maximum share cluster reaches in any interval
// overlapping [lo, hi], with that interval's bounds.
func (f *Fig7) MaxShareWithin(lo, hi time.Duration, cluster string) (share float64, atLo, atHi time.Duration) {
	for i, iv := range f.Intervals {
		if iv.Hi < lo || iv.Lo > hi {
			continue
		}
		if s := core.ShareOf(f.Shares[i], cluster); s > share {
			share, atLo, atHi = s, iv.Lo, iv.Hi
		}
	}
	return share, atLo, atHi
}

// AgeBucket formats a prior-registration age the way Figure 8 buckets it.
func AgeBucket(years int) string {
	switch {
	case years <= 1:
		return "1 year"
	case years >= 6:
		return "6+ years"
	default:
		return map[int]string{2: "2 years", 3: "3 years", 4: "4 years", 5: "5 years"}[years]
	}
}

// Fig8 is the interval market share of prior domain ages.
type Fig8 struct {
	Intervals []core.Interval
	Shares    [][]core.Share
}

// Fig8AgeShare builds Figure 8.
func (a *Analysis) Fig8AgeShare() Fig8 {
	ivs := core.BuildIntervals(core.AllDelays(a.Days), Horizon24h, a.minIntervalCount())
	key := func(d core.DelayResult) string {
		return AgeBucket(ageYearsOf(d))
	}
	return Fig8{Intervals: ivs, Shares: core.MarketShare(ivs, key)}
}

// ageYearsOf derives the prior registration's age at deletion from observed
// metadata only.
func ageYearsOf(d core.DelayResult) int {
	ref := d.Obs.DeleteDay().Start()
	const year = 365 * 24 * time.Hour
	a := int(ref.Sub(d.Obs.PriorCreated()) / year)
	if a < 0 {
		return 0
	}
	return a
}

// OldShareSeries returns, per interval, the combined share of domains aged
// minYears or more — the series whose peaks the paper highlights at 0 s and
// 6–16 s.
func OldShareSeries(f Fig8, minYears int) []float64 {
	out := make([]float64, len(f.Intervals))
	for i, shares := range f.Shares {
		for _, s := range shares {
			if bucketAtLeast(s.Key, minYears) {
				out[i] += s.Value
			}
		}
	}
	return out
}

func bucketAtLeast(bucket string, minYears int) bool {
	order := []string{"1 year", "2 years", "3 years", "4 years", "5 years", "6+ years"}
	for i, b := range order {
		if b == bucket {
			return i+1 >= minYears
		}
	}
	return false
}
