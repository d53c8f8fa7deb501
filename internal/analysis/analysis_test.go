package analysis_test

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"

	"dropzero/internal/analysis"
	"dropzero/internal/core"
	"dropzero/internal/registrars"
)

// within asserts a measured fraction lies inside [lo, hi].
func within(t *testing.T, what string, got, lo, hi float64) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s = %.4f, want in [%.4f, %.4f]", what, got, lo, hi)
	}
}

func TestFig1VolumeBand(t *testing.T) {
	a := studyAnalysis(t)
	rows := a.Fig1()
	st := analysis.Fig1Summary(rows)
	scale := studyResult(t).Config.Scale
	// The paper: 66 k–112 k deletions per day.
	if float64(st.MinDeleted) < 0.9*66000*scale || float64(st.MaxDeleted) > 1.1*112000*scale {
		t.Errorf("daily volume [%d, %d] outside scaled paper band", st.MinDeleted, st.MaxDeleted)
	}
	if st.Days != studyResult(t).Config.Days {
		t.Errorf("days = %d", st.Days)
	}
}

func TestFig2Headlines(t *testing.T) {
	a := studyAnalysis(t)
	f := a.Fig2Timeline()
	// Nothing before 19:00 UTC.
	if f.Stats.FirstRereg < 19*60 {
		t.Errorf("first re-registration at minute %d, before 19:00", f.Stats.FirstRereg)
	}
	// ≈11.2 % re-registered on the deletion day.
	within(t, "same-day pct", f.Stats.PctSameDay, 9.5, 13.0)
	// Most same-day re-registrations fall in the 19–20 h hour.
	within(t, "19-20h share", f.Stats.ShareOfSameDayIn19h, 0.60, 0.95)
	// The cumulative curve is non-decreasing.
	for m := 1; m < len(f.CumulativePct); m++ {
		if f.CumulativePct[m] < f.CumulativePct[m-1] {
			t.Fatalf("cumulative curve decreases at minute %d", m)
		}
	}
}

func TestFig3OrderIdentification(t *testing.T) {
	a := studyAnalysis(t)
	r := a.BuildReport()
	if r.Fig3 == nil {
		t.Fatal("no Fig3")
	}
	if r.Fig3.UpdateOrderScore < 0.6 {
		t.Errorf("update-order score = %.3f, want strong positive", r.Fig3.UpdateOrderScore)
	}
	if r.Fig3.ListOrderScore > 0.3 {
		t.Errorf("list-order score = %.3f, want ≈0", r.Fig3.ListOrderScore)
	}
	// ≈80 % of same-day points on the diagonal (paper's visual estimate).
	within(t, "diagonal share", r.Fig3.OnDiagonalShare, 0.70, 0.95)
}

func TestOrderSearchRanksLastUpdateFirst(t *testing.T) {
	a := studyAnalysis(t)
	r := a.BuildReport()
	if len(r.OrderSearch) == 0 {
		t.Fatal("no order search results")
	}
	if best := r.OrderSearch[0].Ordering; best != core.OrderLastUpdate && best != core.OrderLastUpdateCreated {
		t.Errorf("best ordering = %v", best)
	}
	// Every rejected ordering must score clearly lower than the winner;
	// the two last-update variants are near-identical orders and exempt.
	best := r.OrderSearch[0].Score
	for _, res := range r.OrderSearch[1:] {
		if res.Ordering == core.OrderLastUpdate || res.Ordering == core.OrderLastUpdateCreated {
			continue
		}
		if res.Score > best-0.2 {
			t.Errorf("ordering %v score %.3f too close to winner %.3f", res.Ordering, res.Score, best)
		}
	}
}

func TestFig4PanelShapes(t *testing.T) {
	a := studyAnalysis(t)
	all := a.Fig4Heatmap("")
	if all.Total == 0 {
		t.Fatal("empty all-registrars panel")
	}
	// Most mass near the diagonal overall.
	within(t, "all diagonal share", all.DiagonalShare, 0.65, 0.95)

	snap := a.Fig4Heatmap(registrars.SvcSnapNames)
	within(t, "SnapNames diagonal share", snap.DiagonalShare, 0.90, 1.0)
	if snap.HoldbackShare > 0.1 {
		t.Errorf("SnapNames holdback = %.3f", snap.HoldbackShare)
	}

	gd := a.Fig4Heatmap(registrars.SvcGoDaddy)
	if gd.DiagonalShare > 0.6 {
		t.Errorf("GoDaddy diagonal = %.3f, want spread-out behaviour", gd.DiagonalShare)
	}

	xin := a.Fig4Heatmap(registrars.SvcXinnet)
	if xin.DiagonalShare > 0.05 {
		t.Errorf("Xinnet diagonal = %.3f, want ≈0", xin.DiagonalShare)
	}
	within(t, "Xinnet holdback share", xin.HoldbackShare, 0.5, 1.0)

	oneapi := a.Fig4Heatmap(registrars.Svc1API)
	if oneapi.DiagonalShare > 0.02 {
		t.Errorf("1API diagonal = %.3f, want 0 (starts ≥30 s)", oneapi.DiagonalShare)
	}
}

func TestFig5Headlines(t *testing.T) {
	a := studyAnalysis(t)
	f := a.Fig5CDF()
	// Paper: ≈9.5 % at 0 s, ≈13 % at 24 h, ≈1 point rise between 3 h and 8 h.
	within(t, "pct at 0s", f.Stats.PctAt0s, 8.0, 11.0)
	within(t, "pct at 24h", f.Stats.PctAt24h, 11.0, 15.0)
	within(t, "3h-8h rise", f.Stats.Rise3hTo8h, 0.4, 1.8)
	// CDF is non-decreasing.
	for i := 1; i < len(f.Pct); i++ {
		if f.Pct[i] < f.Pct[i-1] {
			t.Fatalf("Fig5 CDF decreases at %v", f.Thresholds[i])
		}
	}
	// Fast growth in the first 30 s then flattening: the 0→30 s gain must
	// exceed the 30→150 s gain.
	gainEarly := f.Stats.PctAt30s - f.Stats.PctAt0s
	var at150 float64
	for i, th := range f.Thresholds {
		if th == 150*time.Second {
			at150 = f.Pct[i]
		}
	}
	if gainLate := at150 - f.Stats.PctAt30s; gainLate > gainEarly {
		t.Errorf("no flattening after 30 s: early=%.3f late=%.3f", gainEarly, gainLate)
	}
}

func TestFig6ClusterSignatures(t *testing.T) {
	a := studyAnalysis(t)
	curves := a.Fig6ClusterCDFs(analysis.PaperClusters)
	byName := make(map[string]analysis.Fig6Curve)
	for _, c := range curves {
		byName[c.Cluster] = c
	}
	dc := byName[registrars.SvcDropCatch]
	if dc.N == 0 {
		t.Fatal("DropCatch has no re-registrations")
	}
	// Paper: 99.3 % at 0 s. Envelope-sparsity at reduced scale inflates
	// this slightly; allow a band.
	within(t, "DropCatch 0s", dc.PctAt(0), 97, 100)

	xz := byName[registrars.SvcXZ]
	// Paper: 74.8 % at 0 s → 89.4 % at 3 s. Direction must hold.
	if xz.PctAt(3*time.Second) <= xz.PctAt(0) {
		t.Errorf("XZ did not grow between 0 s and 3 s: %.1f → %.1f", xz.PctAt(0), xz.PctAt(3*time.Second))
	}
	within(t, "XZ 60s", xz.PctAt(60*time.Second), 95, 100)

	oneapi := byName[registrars.Svc1API]
	if oneapi.MinDelay < 30*time.Second {
		t.Errorf("1API min delay = %v, want ≥30 s", oneapi.MinDelay)
	}
	// Paper: median 26 min.
	if oneapi.Median < 5*time.Minute || oneapi.Median > 90*time.Minute {
		t.Errorf("1API median = %v, want tens of minutes", oneapi.Median)
	}

	xin := byName[registrars.SvcXinnet]
	if xin.PctAt(9*time.Second) > 1 {
		t.Errorf("Xinnet before 10 s = %.2f%%, want ≈0", xin.PctAt(9*time.Second))
	}
	if xin.Median < time.Hour || xin.Median > 9*time.Hour {
		t.Errorf("Xinnet median = %v, want hours", xin.Median)
	}

	gd := byName[registrars.SvcGoDaddy]
	if gd.Median < time.Hour {
		t.Errorf("GoDaddy median = %v, want hours", gd.Median)
	}

	ph := byName[registrars.SvcPheenix]
	within(t, "Pheenix 0s", ph.PctAt(0), 50, 95)
	// Pheenix adds a late batch 30–90 min out.
	if ph.PctAt(90*time.Minute) <= ph.PctAt(25*time.Minute) {
		t.Errorf("Pheenix has no 30–90 min rise: %.1f vs %.1f",
			ph.PctAt(25*time.Minute), ph.PctAt(90*time.Minute))
	}

	dyn := byName[registrars.SvcDynadot]
	if dyn.PctAt(0) <= 5 {
		t.Errorf("Dynadot shows no drop-catch activity: %.1f%%", dyn.PctAt(0))
	}
	if dyn.PctAt(0) >= 80 {
		t.Errorf("Dynadot should peak at longer time scales: %.1f%% at 0 s", dyn.PctAt(0))
	}
}

func TestFig7MarketShareHeadlines(t *testing.T) {
	a := studyAnalysis(t)
	f := a.Fig7MarketShare()
	if len(f.Intervals) < 5 {
		t.Fatalf("intervals = %d", len(f.Intervals))
	}
	// DropCatch + SnapNames dominate the 0 s interval.
	dcShare, _, _ := f.ShareIn(0, registrars.SvcDropCatch)
	snShare, _, _ := f.ShareIn(0, registrars.SvcSnapNames)
	within(t, "DropCatch+SnapNames at 0s", dcShare+snShare, 0.55, 0.95)
	// Xinnet exceeds 50 % somewhere in 1–9 h.
	xinMax, _, _ := f.MaxShareWithin(time.Hour, 9*time.Hour, registrars.SvcXinnet)
	within(t, "Xinnet max share 1-9h", xinMax, 0.35, 0.90)
	// No single registrar dominates every interval.
	alwaysTop := true
	for i := range f.Intervals {
		if len(f.Shares[i]) == 0 || f.Shares[i][0].Key != registrars.SvcDropCatch {
			alwaysTop = false
			break
		}
	}
	if alwaysTop {
		t.Error("one cluster dominates every interval; paper says none does")
	}
}

func TestFig8AgePeaks(t *testing.T) {
	a := studyAnalysis(t)
	f := a.Fig8AgeShare()
	old := analysis.OldShareSeries(f, 5)
	if len(old) < 3 {
		t.Fatalf("intervals = %d", len(old))
	}
	// Older domains peak at 0 s: the first interval's 5+ share must exceed
	// the median of the rest.
	rest := slices.Clone(old[1:])
	slices.Sort(rest)
	med := rest[len(rest)/2]
	if old[0] <= med {
		t.Errorf("5+ year share at 0 s = %.3f not above later median %.3f", old[0], med)
	}
}

func TestEnvelopeQualityReport(t *testing.T) {
	a := studyAnalysis(t)
	st := a.EnvelopeQuality()
	if st.Days == 0 || st.MedianPoints == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Derivation mix: exact + interpolated ≈ 1, clamped tiny (paper 0.02 %).
	clamped := st.MethodShares[core.MethodClampedLow] + st.MethodShares[core.MethodClampedHigh]
	if clamped > 0.01 {
		t.Errorf("clamped share = %.4f, want < 1%%", clamped)
	}
	exact := st.MethodShares[core.MethodExact]
	within(t, "exact share", exact, 0.40, 0.90)
	// Nearly all curve points from drop-catch clusters.
	within(t, "curve from top-2 clusters", st.CurveFromTop2, 0.6, 1.0)
}

func TestHeuristicComparisonHeadlines(t *testing.T) {
	a := studyAnalysis(t)
	h := a.CompareHeuristics()
	// Paper: 86.1 % of deletion-day re-registrations have delay ≤3 s.
	within(t, "drop-catch share of same-day", h.DropCatchShare, 0.75, 0.92)
	// The same-day heuristic over-approximates: FP = 1 − DropCatchShare.
	if diff := h.SameDay.FalsePositiveShare - (1 - h.DropCatchShare); diff > 0.001 || diff < -0.001 {
		t.Errorf("same-day FP share inconsistent: %.4f vs %.4f",
			h.SameDay.FalsePositiveShare, 1-h.DropCatchShare)
	}
	if h.SameDay.FalseNegativeShare != 0 {
		t.Errorf("same-day heuristic FN = %.4f, want 0", h.SameDay.FalseNegativeShare)
	}
	// The window heuristic misses drop-catch after 20:00 (paper ≈9.5 %)
	// and wrongly includes delayed in-window re-registrations (paper ≈7.4 %).
	if h.DropWindow.FalseNegatives == 0 {
		t.Error("drop-window heuristic has no false negatives; Drop never ran past 20:00?")
	}
	if h.DropWindow.FalsePositives == 0 {
		t.Error("drop-window heuristic has no false positives")
	}
}

func TestDropDurationsCorrelateWithVolume(t *testing.T) {
	a := studyAnalysis(t)
	d := a.EstimateDropDurations()
	if len(d.Rows) == 0 {
		t.Fatal("no duration rows")
	}
	if d.VolumeEndCorrelation < 0.3 {
		t.Errorf("volume/duration correlation = %.2f, want positive", d.VolumeEndCorrelation)
	}
	for _, row := range d.Rows {
		end := row.End
		if end.Hour() < 19 {
			t.Errorf("day %v drop ended before it started: %v", row.Day, end)
		}
	}
	// Ends vary across days (paper: 19:56–20:49).
	if d.LongestDay.End.Sub(d.LongestDay.Day.Start()) == d.ShortestDay.End.Sub(d.ShortestDay.Day.Start()) {
		t.Error("all drops ended at the same offset")
	}
}

func TestMaliciousHeadlines(t *testing.T) {
	a := studyAnalysis(t)
	m := a.Malicious()
	// Paper: 0.4 % at 0 s, <0.5 % overall, plurality of malicious count in
	// the 0 s class.
	within(t, "malicious at 0s", m.ShareAt0s, 0.001, 0.01)
	within(t, "malicious overall", m.Overall24h, 0.001, 0.01)
	if m.MajorityClass != "0s" {
		t.Errorf("majority class = %q, want 0s", m.MajorityClass)
	}
}

func TestInferenceAccuracyAblation(t *testing.T) {
	a := studyAnalysis(t)
	acc := a.MeasureInferenceAccuracy()
	if acc == nil {
		t.Fatal("no ground truth")
	}
	if acc.Envelope.Median > 3*time.Second {
		t.Errorf("envelope median error = %v, want seconds", acc.Envelope.Median)
	}
	if acc.Regression.Median < time.Minute {
		t.Errorf("regression median error = %v, want minutes-order", acc.Regression.Median)
	}
	if acc.Regression.Mean < 5*acc.Envelope.Mean {
		t.Errorf("regression (%v) should be far worse than envelope (%v)",
			acc.Regression.Mean, acc.Envelope.Mean)
	}
}

func TestReportRenders(t *testing.T) {
	a := studyAnalysis(t)
	out := a.BuildReport().String()
	for _, want := range []string{
		"Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5",
		"Figure 6", "Figure 7", "Figure 8", "Envelope quality",
		"Heuristic comparison", "Drop durations", "Maliciousness",
		"inference accuracy",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing section %q", want)
		}
	}
}

func TestClusterDisplayNames(t *testing.T) {
	a := studyAnalysis(t)
	res := studyResult(t)
	// Every accreditation of a named service must display under that name.
	for _, svc := range analysis.PaperClusters {
		for _, id := range res.Directory.Accreditations(svc) {
			if got := a.ClusterOf(id); got != svc {
				t.Fatalf("ClusterOf(%d) = %q, want %q", id, got, svc)
			}
		}
	}
}

func TestKeywordAnalysisEarlyPeak(t *testing.T) {
	a := studyAnalysis(t)
	ks := a.KeywordAnalysis()
	if len(ks.Intervals) < 3 {
		t.Fatalf("intervals = %d", len(ks.Intervals))
	}
	early, late := analysis.EarlyVsLate(ks.KeywordRich)
	if early <= late {
		t.Errorf("keyword-rich share: early %.3f not above later mean %.3f", early, late)
	}
	earlyK, lateK := analysis.EarlyVsLate(ks.MeanKeywords)
	if earlyK <= lateK {
		t.Errorf("mean keywords: early %.3f not above later mean %.3f", earlyK, lateK)
	}
	for i, v := range ks.DictionaryRich {
		if v < 0 || v > 1 {
			t.Fatalf("dictionary share out of range at %d: %f", i, v)
		}
	}
}

func TestSummarize(t *testing.T) {
	a := studyAnalysis(t)
	s := analysis.Summarize(a.BuildReport())
	if s.Days == 0 || s.TotalDeleted == 0 {
		t.Fatalf("summary: %+v", s)
	}
	if s.BestOrdering == "" {
		t.Fatal("summary missing best ordering")
	}
	if _, ok := s.Clusters["DropCatch"]; !ok {
		t.Fatal("summary missing DropCatch cluster")
	}
	if s.EnvelopeMeanErrSec == nil || s.RegressionMeanErrSec == nil {
		t.Fatal("summary missing accuracy ablation (ground truth was present)")
	}
	if *s.RegressionMeanErrSec < *s.EnvelopeMeanErrSec {
		t.Fatal("regression should not beat the envelope")
	}
	out, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "pctDeletedReregAt0s") {
		t.Fatal("JSON missing fields")
	}
}
