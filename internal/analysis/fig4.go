package analysis

import (
	"time"

	"dropzero/internal/par"
)

// Heatmap is one Figure 4 panel: counts of re-registrations binned by
// deletion-order rank (x) and time of day (y), aggregated over all study
// days.
type Heatmap struct {
	Cluster string // "" for the all-registrars panel
	// RankBins columns cover [0, MaxRank) uniformly; TimeBins rows cover
	// [StartHour, EndHour) of the day.
	RankBins, TimeBins int
	MaxRank            int
	StartHour, EndHour int
	Counts             [][]int // [timeBin][rankBin]
	Total              int
	// DiagonalShare is the fraction of panel mass within 3 s of the
	// envelope (the "dark diagonal"); HoldbackShare the fraction at least
	// 30 min late (horizontal lines and the area above the diagonal).
	DiagonalShare float64
	HoldbackShare float64
}

// A panel's resolution: 60 rank columns by 40 time rows over 19:00–21:00,
// like the paper's panels.
const (
	heatRankBins  = 60
	heatTimeBins  = 40
	heatStartHour = 19
	heatEndHour   = 21
)

// Fig4Heatmap builds one panel. cluster filters by re-registering cluster
// display name; the empty string selects all registrars.
func (a *Analysis) Fig4Heatmap(cluster string) *Heatmap {
	maxRank := 0
	for _, d := range a.Days {
		if d.Total > maxRank {
			maxRank = d.Total
		}
	}
	h := &Heatmap{
		Cluster:   cluster,
		RankBins:  heatRankBins,
		TimeBins:  heatTimeBins,
		MaxRank:   maxRank,
		StartHour: heatStartHour,
		EndHour:   heatEndHour,
		Counts:    make([][]int, heatTimeBins),
	}
	for i := range h.Counts {
		h.Counts[i] = make([]int, heatRankBins)
	}
	if maxRank == 0 {
		return h
	}
	windowSec := (heatEndHour - heatStartHour) * 3600
	diag, hold := 0, 0
	for _, day := range a.Days {
		for _, d := range day.Delays {
			if !d.Obs.SameDayRereg() {
				continue
			}
			if cluster != "" && a.ReregClusterOf(d) != cluster {
				continue
			}
			h.Total++
			if d.Delay <= 3*time.Second {
				diag++
			}
			if d.Delay >= 30*time.Minute {
				hold++
			}
			t := d.Obs.ReregTime()
			sec := (t.Hour()-heatStartHour)*3600 + t.Minute()*60 + t.Second()
			if sec < 0 || sec >= windowSec {
				continue
			}
			tb := sec * heatTimeBins / windowSec
			rb := d.Rank * heatRankBins / maxRank
			if rb >= heatRankBins {
				rb = heatRankBins - 1
			}
			h.Counts[tb][rb]++
		}
	}
	if h.Total > 0 {
		h.DiagonalShare = float64(diag) / float64(h.Total)
		h.HoldbackShare = float64(hold) / float64(h.Total)
	}
	return h
}

// Fig4Panels builds the paper's six panels: all registrars, SnapNames,
// Pheenix, GoDaddy, Xinnet and 1API. Cluster names must be the display
// names from ClusterOf. Panels are independent single-pass aggregations, so
// they build on the Input.Parallelism worker pool; the result slice order is
// fixed by the clusters argument either way.
func (a *Analysis) Fig4Panels(clusters []string) []*Heatmap {
	all := append([]string{""}, clusters...)
	return par.Do(a.workers(), len(all), func(i int) *Heatmap {
		return a.Fig4Heatmap(all[i])
	})
}
