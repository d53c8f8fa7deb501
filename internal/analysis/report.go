package analysis

import (
	"fmt"
	"io"
	"strings"
	"time"

	"dropzero/internal/core"
	"dropzero/internal/registrars"
)

// PaperClusters are the registrar clusters the paper's figures feature.
var PaperClusters = []string{
	registrars.SvcDropCatch,
	registrars.SvcSnapNames,
	registrars.SvcPheenix,
	registrars.SvcXZ,
	registrars.SvcDynadot,
	registrars.SvcGoDaddy,
	registrars.SvcXinnet,
	registrars.Svc1API,
}

// Fig4Clusters are the five named Figure 4 panels.
var Fig4Clusters = []string{
	registrars.SvcSnapNames,
	registrars.SvcPheenix,
	registrars.SvcGoDaddy,
	registrars.SvcXinnet,
	registrars.Svc1API,
}

// Report bundles every experiment's data for one dataset.
type Report struct {
	Fig1      []Fig1Row
	Fig1Stats Fig1Stats
	Fig2      Fig2
	Fig3      *Fig3
	Fig4      []*Heatmap
	Fig5      Fig5
	Fig6      []Fig6Curve
	Fig7      Fig7
	Fig8      Fig8
	Keywords  KeywordShares
	Envelope  EnvelopeStats
	Heuristic HeuristicComparison
	Durations DropDurations
	Malicious MaliciousStats
	// Accuracy is nil without simulator ground truth.
	Accuracy *InferenceAccuracy
	// OrderSearch scores candidate deletion orders on the Fig3 day.
	OrderSearch []core.OrderSearchResult
}

// BuildReport runs every analysis.
func (a *Analysis) BuildReport() *Report {
	r := &Report{
		Fig1:      a.Fig1(),
		Fig2:      a.Fig2Timeline(),
		Fig4:      a.Fig4Panels(Fig4Clusters),
		Fig5:      a.Fig5CDF(),
		Fig6:      a.Fig6ClusterCDFs(PaperClusters),
		Fig7:      a.Fig7MarketShare(),
		Fig8:      a.Fig8AgeShare(),
		Keywords:  a.KeywordAnalysis(),
		Envelope:  a.EnvelopeQuality(),
		Heuristic: a.CompareHeuristics(),
		Durations: a.EstimateDropDurations(),
		Malicious: a.Malicious(),
		Accuracy:  a.MeasureInferenceAccuracy(),
	}
	r.Fig1Stats = Fig1Summary(r.Fig1)
	if len(a.Days) > 0 {
		day := a.Days[0].Day
		if len(a.Days) > 1 {
			day = a.Days[1].Day // the paper illustrates with its second day
		}
		if f3, err := a.Fig3Orders(day); err == nil {
			r.Fig3 = f3
		}
		r.OrderSearch = core.SearchOrderings(a.dayObservations(day))
	}
	return r
}

// Write renders the full report as text.
func (r *Report) Write(w io.Writer) {
	line := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }
	section := func(title string) { fmt.Fprintf(w, "\n=== %s ===\n", title) }

	section("Figure 1: domains deleted per day")
	line("days=%d  min=%d  max=%d  mean=%.0f  total=%d",
		r.Fig1Stats.Days, r.Fig1Stats.MinDeleted, r.Fig1Stats.MaxDeleted, r.Fig1Stats.MeanDeleted, r.Fig1Stats.Total)

	section("Figure 2: same-day re-registrations")
	line("first re-registration at %02d:%02d UTC (paper: 19:00)", r.Fig2.Stats.FirstRereg/60, r.Fig2.Stats.FirstRereg%60)
	line("re-registered by 20:00: %.2f%% of deleted (paper: 9.4%%)", r.Fig2.Stats.PctBy20h)
	line("re-registered same day: %.2f%% of deleted (paper: 11.2%%)", r.Fig2.Stats.PctSameDay)
	line("share of same-day re-registrations in 19–20 h: %.1f%% (paper: 84%%)", 100*r.Fig2.Stats.ShareOfSameDayIn19h)
	line("peak rate: %.1f/min; rate at 21:00: %.2f/min (paper: >100, ≈3 at full scale)",
		r.Fig2.Stats.PeakPerMinute, r.Fig2.Stats.RateAt21h)
	line("re-registrations per minute, 18:30–22:00:")
	fmt.Fprint(w, RenderTimeline(r.Fig2.PerMinute, 18*60+30, 22*60))

	if r.Fig3 != nil {
		section("Figure 3: deletion order")
		line("day %v: rank/time correlation — pending-list order %.3f vs last-update order %.3f",
			r.Fig3.Day, r.Fig3.ListOrderScore, r.Fig3.UpdateOrderScore)
		line("same-day points within 3 s of envelope: %.1f%% (paper: ≈80%% on the diagonal)",
			100*r.Fig3.OnDiagonalShare)
		line("envelope points: %d", len(r.Fig3.Envelope))
	}

	if len(r.OrderSearch) > 0 {
		section("Deletion-order search (§4.1)")
		for _, res := range r.OrderSearch {
			line("%-20s score %.3f", res.Ordering, res.Score)
		}
	}

	section("Figure 4: rank × time heatmaps")
	for _, h := range r.Fig4 {
		fmt.Fprintln(w, RenderHeatmap(h))
	}

	section("Figure 5: delay CDF (24 h)")
	line("0 s: %.2f%% of deleted (paper: 9.5%%)", r.Fig5.Stats.PctAt0s)
	line("24 h: %.2f%% of deleted (paper: 13%%)", r.Fig5.Stats.PctAt24h)
	line("3 h → 8 h rise: %.2f points (paper: ≈1)", r.Fig5.Stats.Rise3hTo8h)

	section("Figure 6: per-cluster delay CDFs")
	for _, c := range r.Fig6 {
		if c.N == 0 {
			line("%-10s (no re-registrations)", c.Cluster)
			continue
		}
		line("%-10s n=%-6d 0s=%5.1f%%  3s=%5.1f%%  60s=%5.1f%%  median=%s  min=%s",
			c.Cluster, c.N, c.PctAt(0), c.PctAt(3*time.Second), c.PctAt(60*time.Second),
			FormatDuration(c.Median), FormatDuration(c.MinDelay))
	}

	section("Figure 7: interval market share by registrar cluster")
	fmt.Fprint(w, RenderShareTable(ShareTable(r.Fig7, PaperClusters), PaperClusters))

	section("Figure 8: interval market share by prior domain age")
	ageKeys := []string{"1 year", "2 years", "3 years", "4 years", "5 years", "6+ years"}
	fmt.Fprint(w, RenderShareTable(ShareTable(Fig7{Intervals: r.Fig8.Intervals, Shares: r.Fig8.Shares}, ageKeys), ageKeys))

	section("Keywords and dictionary words (§4.4)")
	if kEarly, kLate := EarlyVsLate(r.Keywords.KeywordRich); true {
		dEarly, dLate := EarlyVsLate(r.Keywords.DictionaryRich)
		line("keyword-rich names: %.1f%% in the earliest interval vs %.1f%% later mean", 100*kEarly, 100*kLate)
		line("dictionary-word names: %.1f%% in the earliest interval vs %.1f%% later mean", 100*dEarly, 100*dLate)
		line("(paper: word-rich names peak in the earliest intervals, like domain age)")
	}

	section("Envelope quality (§4.2)")
	line("days=%d  median points/day=%d  p99 gap ≤3 s on %.0f%% of days  max gap=%s",
		r.Envelope.Days, r.Envelope.MedianPoints, 100*r.Envelope.P99GapLEQ3s, FormatDuration(r.Envelope.MaxGap))
	line("earliest-time derivation: exact=%.1f%% interpolated=%.1f%% clamped=%.2f%% (paper: 52 / 48 / 0.02)",
		100*r.Envelope.MethodShares[core.MethodExact],
		100*r.Envelope.MethodShares[core.MethodInterpolated],
		100*(r.Envelope.MethodShares[core.MethodClampedLow]+r.Envelope.MethodShares[core.MethodClampedHigh]))
	line("envelope points from top-2 clusters: %.1f%% (paper: nearly all from drop-catch)", 100*r.Envelope.CurveFromTop2)

	section("Heuristic comparison (§4.3)")
	line("deletion-day re-registrations with delay ≤3 s: %.1f%% (paper: 86.1%%)", 100*r.Heuristic.DropCatchShare)
	line("same-day heuristic:   FP %.1f%% (paper: 13.9%%), FN %.1f%%",
		100*r.Heuristic.SameDay.FalsePositiveShare, 100*r.Heuristic.SameDay.FalseNegativeShare)
	line("drop-window heuristic: FN %.1f%% (paper: ≈9.5%%), FP %.1f%% (paper: ≈7.4%%)",
		100*r.Heuristic.DropWindow.FalseNegativeShare, 100*r.Heuristic.DropWindow.FalsePositiveShare)

	section("Drop durations (§4)")
	line("longest: %v until %s (deleted %d)", r.Durations.LongestDay.Day,
		r.Durations.LongestDay.End.Format("15:04:05"), r.Durations.LongestDay.Deleted)
	line("shortest: %v until %s (deleted %d)", r.Durations.ShortestDay.Day,
		r.Durations.ShortestDay.End.Format("15:04:05"), r.Durations.ShortestDay.Deleted)
	line("volume/duration correlation: %.2f", r.Durations.VolumeEndCorrelation)

	section("Maliciousness (§4.4)")
	line("0 s share: %.2f%% (paper: 0.4%%)  30–60 s share: %.2f%% (paper: ≈2%%)  overall ≤24 h: %.2f%% (paper: <0.5%%)",
		100*r.Malicious.ShareAt0s, 100*r.Malicious.PeakShare30to60s, 100*r.Malicious.Overall24h)
	line("plurality of malicious domains in class: %s (paper: 0 s)", r.Malicious.MajorityClass)

	if r.Accuracy != nil {
		section("Ablation: inference accuracy vs ground truth")
		line("envelope:   mean=%s median=%s p99=%s max=%s (n=%d)",
			FormatDuration(r.Accuracy.Envelope.Mean), FormatDuration(r.Accuracy.Envelope.Median),
			FormatDuration(r.Accuracy.Envelope.P99), FormatDuration(r.Accuracy.Envelope.Max), r.Accuracy.Envelope.N)
		line("regression: mean=%s median=%s p99=%s max=%s (n=%d)",
			FormatDuration(r.Accuracy.Regression.Mean), FormatDuration(r.Accuracy.Regression.Median),
			FormatDuration(r.Accuracy.Regression.P99), FormatDuration(r.Accuracy.Regression.Max), r.Accuracy.Regression.N)
	}
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	r.Write(&b)
	return b.String()
}
