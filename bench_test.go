// Benchmark harness: one benchmark per figure and in-text experiment of the
// paper, each regenerating its data from a simulated measurement study and
// reporting the headline numbers as benchmark metrics (paper values in the
// metric names' comments; EXPERIMENTS.md records the comparison).
//
// Two studies are shared across benchmarks and built once:
//
//   - the *coarse* study: 56 deletion days at 1/10 of the paper's volume —
//     the aggregate figures (1, 2, 4, 5, 7, 8) and the heuristic analysis;
//   - the *fine* study: 3 deletion days at full volume — the experiments
//     that need the paper's full per-second point density (envelope quality,
//     per-cluster CDFs, Figure 3, the order search, inference accuracy).
//
// Run with:
//
//	go test -bench=. -benchmem -timeout 1800s
package dropzero_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dropzero"
	"dropzero/internal/analysis"
	"dropzero/internal/core"
	"dropzero/internal/dropscope"
	"dropzero/internal/epp"
	"dropzero/internal/inproc"
	"dropzero/internal/measure"
	"dropzero/internal/model"
	"dropzero/internal/rdap"
	"dropzero/internal/registrars"
	"dropzero/internal/registry"
	"dropzero/internal/sim"
	"dropzero/internal/simtime"
	"dropzero/internal/storm"
)

// study is one memoized run, and its analysis, shared by the benchmarks
// that read it: coarse is the paper's 56 days at scale 0.1, fine 3 days at
// full scale.
type study struct {
	a   *analysis.Analysis
	res *sim.Result
}

func runStudy(days int, scale float64) func() (study, error) {
	return sync.OnceValues(func() (study, error) {
		cfg := sim.DefaultConfig()
		cfg.Days, cfg.Scale = days, scale
		res, err := sim.Run(cfg)
		if err != nil {
			return study{}, err
		}
		return study{analysis.New(analysis.Input{
			Observations: res.Observations,
			Registrars:   res.Registrars,
			ServiceOf:    res.Directory.ServiceOf,
			Deletions:    res.Deletions,
		}), res}, nil
	})
}

var coarse, fine = runStudy(56, 0.1), runStudy(3, 1.0)

func coarseStudy(b *testing.B) *analysis.Analysis {
	b.Helper()
	st, err := coarse()
	if err != nil {
		b.Fatal(err)
	}
	return st.a
}

func fineStudy(b *testing.B) (*analysis.Analysis, *sim.Result) {
	b.Helper()
	st, err := fine()
	if err != nil {
		b.Fatal(err)
	}
	return st.a, st.res
}

// BenchmarkFig1DeletionsPerDay regenerates Figure 1 (expired .com domains
// deleted per day; paper: 66 k–112 k over 56 days).
func BenchmarkFig1DeletionsPerDay(b *testing.B) {
	a := coarseStudy(b)
	var st analysis.Fig1Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = analysis.Fig1Summary(a.Fig1())
	}
	scale := 1 / 0.1
	b.ReportMetric(float64(st.MinDeleted)*scale, "min-deleted/day@paper-scale")
	b.ReportMetric(float64(st.MaxDeleted)*scale, "max-deleted/day@paper-scale")
	b.ReportMetric(float64(st.Days), "days")
}

// BenchmarkFig2SameDayReregs regenerates Figure 2 (same-day re-registration
// timeline; paper: none before 19:00, 9.4 % by 20:00, 11.2 % same-day, 84 %
// of same-day in the 19–20 h hour).
func BenchmarkFig2SameDayReregs(b *testing.B) {
	a := coarseStudy(b)
	var f analysis.Fig2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = a.Fig2Timeline()
	}
	b.ReportMetric(float64(f.Stats.FirstRereg), "first-rereg-minute(paper:1140)")
	b.ReportMetric(f.Stats.PctBy20h, "pct-by-20h(paper:9.4)")
	b.ReportMetric(f.Stats.PctSameDay, "pct-same-day(paper:11.2)")
	b.ReportMetric(100*f.Stats.ShareOfSameDayIn19h, "pct-of-sameday-in-19h(paper:84)")
}

// BenchmarkFig3DeletionOrder regenerates Figure 3 (pending-list order versus
// last-updated order with the minimum envelope; paper: ≈80 % of points on
// the diagonal, none below).
func BenchmarkFig3DeletionOrder(b *testing.B) {
	a, _ := fineStudy(b)
	day := a.Days[1].Day
	var f *analysis.Fig3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		f, err = a.Fig3Orders(day)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f.UpdateOrderScore, "update-order-corr(paper:high)")
	b.ReportMetric(f.ListOrderScore, "list-order-corr(paper:~0)")
	b.ReportMetric(100*f.OnDiagonalShare, "pct-on-diagonal(paper:~80)")
}

// BenchmarkFig4Heatmaps regenerates the six Figure 4 panels (rank × time
// heatmaps per registrar cluster).
func BenchmarkFig4Heatmaps(b *testing.B) {
	a := coarseStudy(b)
	var panels []*analysis.Heatmap
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		panels = a.Fig4Panels(analysis.Fig4Clusters)
	}
	b.ReportMetric(100*panels[0].DiagonalShare, "all-diagonal-pct")
	for _, h := range panels[1:] {
		switch h.Cluster {
		case registrars.SvcSnapNames:
			b.ReportMetric(100*h.DiagonalShare, "snapnames-diagonal-pct(paper:high)")
		case registrars.SvcXinnet:
			b.ReportMetric(100*h.HoldbackShare, "xinnet-holdback-pct(paper:high)")
		}
	}
}

// BenchmarkFig5DelayCDF regenerates Figure 5 (delay CDF over 24 h; paper:
// 9.5 % of deleted domains at 0 s, ≈13 % at 24 h, ≈1 point rise 3–8 h).
func BenchmarkFig5DelayCDF(b *testing.B) {
	a := coarseStudy(b)
	var f analysis.Fig5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = a.Fig5CDF()
	}
	b.ReportMetric(f.Stats.PctAt0s, "pct-at-0s(paper:9.5)")
	b.ReportMetric(f.Stats.PctAt24h, "pct-at-24h(paper:13)")
	b.ReportMetric(f.Stats.Rise3hTo8h, "rise-3h-8h(paper:~1)")
}

// BenchmarkFig6ClusterCDFs regenerates Figure 6 (per-cluster delay CDFs;
// paper: DropCatch 99.3 % at 0 s; XZ 74.8 % → 89.4 % by 3 s; 1API starting
// at 30 s with median 26 min; Xinnet/GoDaddy at hour scale).
func BenchmarkFig6ClusterCDFs(b *testing.B) {
	a, _ := fineStudy(b)
	var curves []analysis.Fig6Curve
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curves = a.Fig6ClusterCDFs(analysis.PaperClusters)
	}
	for _, c := range curves {
		switch c.Cluster {
		case registrars.SvcDropCatch:
			b.ReportMetric(c.PctAt(0), "dropcatch-0s-pct(paper:99.3)")
		case registrars.SvcXZ:
			b.ReportMetric(c.PctAt(0), "xz-0s-pct(paper:74.8)")
			b.ReportMetric(c.PctAt(3*time.Second), "xz-3s-pct(paper:89.4)")
		case registrars.Svc1API:
			b.ReportMetric(c.Median.Minutes(), "1api-median-min(paper:26)")
			b.ReportMetric(c.MinDelay.Seconds(), "1api-min-delay-s(paper:>=30)")
		}
	}
}

// BenchmarkFig7MarketShare regenerates Figure 7 (interval market share by
// registrar cluster; paper: DropCatch+SnapNames dominate 0 s, Xinnet >50 %
// at 1–9 h).
func BenchmarkFig7MarketShare(b *testing.B) {
	a := coarseStudy(b)
	var f analysis.Fig7
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = a.Fig7MarketShare()
	}
	dc, _, _ := f.ShareIn(0, registrars.SvcDropCatch)
	sn, _, _ := f.ShareIn(0, registrars.SvcSnapNames)
	xin, _, _ := f.MaxShareWithin(time.Hour, 9*time.Hour, registrars.SvcXinnet)
	b.ReportMetric(100*(dc+sn), "dc+sn-at-0s-pct(paper:dominant)")
	b.ReportMetric(100*xin, "xinnet-max-1h-9h-pct(paper:>50)")
	b.ReportMetric(float64(len(f.Intervals)), "intervals")
}

// BenchmarkFig8AgeShare regenerates Figure 8 (interval market share of prior
// domain age; paper: older domains peak at 0 s and 6–16 s).
func BenchmarkFig8AgeShare(b *testing.B) {
	a := coarseStudy(b)
	var f analysis.Fig8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = a.Fig8AgeShare()
	}
	old := analysis.OldShareSeries(f, 5)
	b.ReportMetric(100*old[0], "old5plus-at-0s-pct")
	rest := 0.0
	for _, v := range old[1:] {
		rest += v
	}
	if len(old) > 1 {
		b.ReportMetric(100*rest/float64(len(old)-1), "old5plus-later-mean-pct")
	}
}

// BenchmarkEnvelopeStats regenerates the §4.2 curve-quality statistics
// (paper: ≈7.6 k points/day, 99 % of gaps ≤3 s, max 38 s; 52 % exact, 48 %
// interpolated, 0.02 % clamped). Run at full volume, where the paper's
// point density exists.
func BenchmarkEnvelopeStats(b *testing.B) {
	a, _ := fineStudy(b)
	var st analysis.EnvelopeStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = a.EnvelopeQuality()
	}
	b.ReportMetric(float64(st.MedianPoints), "median-points/day(paper:7600)")
	b.ReportMetric(st.MaxGap.Seconds(), "max-gap-s(paper:38)")
	b.ReportMetric(100*st.P99GapLEQ3s, "pct-days-p99gap<=3s(paper:~100)")
	b.ReportMetric(100*st.MethodShares[core.MethodExact], "exact-pct(paper:52)")
	b.ReportMetric(100*st.MethodShares[core.MethodInterpolated], "interp-pct(paper:48)")
}

// BenchmarkHeuristicComparison regenerates the §4.3 heuristic evaluation
// (paper: 86.1 % of same-day re-registrations ≤3 s; same-day heuristic FP
// 13.9 %; window heuristic FN ≈9.5 %, FP ≈7.4 %).
func BenchmarkHeuristicComparison(b *testing.B) {
	a := coarseStudy(b)
	var h analysis.HeuristicComparison
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h = a.CompareHeuristics()
	}
	b.ReportMetric(100*h.DropCatchShare, "dropcatch-share-pct(paper:86.1)")
	b.ReportMetric(100*h.SameDay.FalsePositiveShare, "sameday-FP-pct(paper:13.9)")
	b.ReportMetric(100*h.DropWindow.FalseNegativeShare, "window-FN-pct(paper:9.5)")
	b.ReportMetric(100*h.DropWindow.FalsePositiveShare, "window-FP-pct(paper:7.4)")
}

// BenchmarkDropDuration regenerates the §4 Drop-duration analysis (paper:
// ends vary 19:56–20:49 with deletion volume).
func BenchmarkDropDuration(b *testing.B) {
	a := coarseStudy(b)
	var d analysis.DropDurations
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d = a.EstimateDropDurations()
	}
	b.ReportMetric(d.VolumeEndCorrelation, "volume-duration-corr(paper:positive)")
	b.ReportMetric(d.LongestDay.End.Sub(d.LongestDay.Day.At(19, 0, 0)).Minutes(), "longest-drop-min(paper:~109)")
	b.ReportMetric(d.ShortestDay.End.Sub(d.ShortestDay.Day.At(19, 0, 0)).Minutes(), "shortest-drop-min(paper:~57)")
}

// BenchmarkMaliciousShare regenerates the §4.4 maliciousness slice (paper:
// 0.4 % at 0 s, ≈2 % at 30–60 s, <0.5 % overall).
func BenchmarkMaliciousShare(b *testing.B) {
	a := coarseStudy(b)
	var m analysis.MaliciousStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = a.Malicious()
	}
	b.ReportMetric(100*m.ShareAt0s, "malicious-0s-pct(paper:0.4)")
	b.ReportMetric(100*m.PeakShare30to60s, "malicious-30-60s-pct(paper:~2)")
	b.ReportMetric(100*m.Overall24h, "malicious-overall-pct(paper:<0.5)")
}

// BenchmarkInferenceAccuracy is ablation A1: envelope model versus the
// linear-regression baseline, scored against the simulator's ground-truth
// deletion instants.
func BenchmarkInferenceAccuracy(b *testing.B) {
	a, _ := fineStudy(b)
	var acc *analysis.InferenceAccuracy
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc = a.MeasureInferenceAccuracy()
	}
	b.ReportMetric(acc.Envelope.Mean.Seconds(), "envelope-mean-err-s")
	b.ReportMetric(acc.Envelope.Max.Seconds(), "envelope-max-err-s")
	b.ReportMetric(acc.Regression.Mean.Seconds(), "regression-mean-err-s")
}

// BenchmarkOrderSearch is ablation A2: scoring every candidate deletion
// order on one day (§4.1; only last-update+ID should explain the data).
func BenchmarkOrderSearch(b *testing.B) {
	a, res := fineStudy(b)
	day := a.Days[0].Day
	obs := dayRows(res.Observations, day)
	var results []core.OrderSearchResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results = core.SearchOrderings(obs)
	}
	b.ReportMetric(results[0].Score, "best-score")
	// Report the best *rejected* candidate (the two last-update variants
	// are near-identical orders).
	for _, r := range results {
		if r.Ordering != core.OrderLastUpdate && r.Ordering != core.OrderLastUpdateCreated {
			b.ReportMetric(r.Score, "best-rejected-score")
			break
		}
	}
	if best := results[0].Ordering; best != core.OrderLastUpdate && best != core.OrderLastUpdateCreated {
		b.Fatalf("best ordering = %v", best)
	}
}

// BenchmarkScaleSensitivity is ablation A3: the zero-delay share must be
// stable across simulation scales (it is a ratio, not a volume).
func BenchmarkScaleSensitivity(b *testing.B) {
	shares := make([]float64, 0, 2)
	for _, scale := range []float64{0.02, 0.05} {
		cfg := sim.DefaultConfig()
		cfg.Days = 6
		cfg.Scale = scale
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		days, _ := core.AnalyzeAll(res.Observations, core.DefaultEnvelopeConfig())
		zero := 0
		for _, d := range core.AllDelays(days) {
			if d.Delay == 0 {
				zero++
			}
		}
		shares = append(shares, float64(zero)/float64(core.TotalDeleted(days)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = shares
	}
	b.ReportMetric(100*shares[0], "zero-share-pct@scale0.02")
	b.ReportMetric(100*shares[1], "zero-share-pct@scale0.05")
}

// BenchmarkAblationTruncateGap is ablation A4: sensitivity of the envelope
// to the §4.2 end-of-Drop truncation threshold. Too small truncates live
// curve (earlier estimated end); too large admits delayed tail outliers.
// The paper's one minute sits on a plateau.
func BenchmarkAblationTruncateGap(b *testing.B) {
	a, _ := fineStudy(b)
	ranked := a.Days[0].Ranked
	gaps := []time.Duration{10 * time.Second, time.Minute, 5 * time.Minute}
	var ends [3]time.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, g := range gaps {
			env, err := core.BuildEnvelope(ranked, core.EnvelopeConfig{TruncateGap: g})
			if err != nil {
				b.Fatal(err)
			}
			ends[j] = env.End()
		}
	}
	base := ends[1]
	b.ReportMetric(base.Sub(ends[0]).Seconds(), "end-shift-10s-vs-60s-s")
	b.ReportMetric(ends[2].Sub(base).Seconds(), "end-shift-300s-vs-60s-s")
}

// BenchmarkAblationTieBreaker is the §4.1 secondary-key ablation: the paper
// notes creation timestamps work about as well as domain IDs for breaking
// last-updated ties, and opts for IDs because they induce a total order.
func BenchmarkAblationTieBreaker(b *testing.B) {
	a, res := fineStudy(b)
	day := a.Days[0].Day
	obs := dayRows(res.Observations, day)
	var byID, byCreated float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		byID = core.OrderScore(core.Rank(obs, core.OrderLastUpdate))
		byCreated = core.OrderScore(core.Rank(obs, core.OrderLastUpdateCreated))
	}
	b.ReportMetric(byID, "score-tiebreak-id")
	b.ReportMetric(byCreated, "score-tiebreak-created")
}

// BenchmarkKeywordShare regenerates the §4.4 keyword/dictionary-word
// companion analysis (paper: word-rich names peak in the earliest
// intervals, like domain age).
func BenchmarkKeywordShare(b *testing.B) {
	a := coarseStudy(b)
	var ks analysis.KeywordShares
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ks = a.KeywordAnalysis()
	}
	early, late := analysis.EarlyVsLate(ks.KeywordRich)
	b.ReportMetric(100*early, "keyword-rich-at-0s-pct")
	b.ReportMetric(100*late, "keyword-rich-later-mean-pct")
}

// BenchmarkAblationAccreditationRace is ablation A5: a 60-name Drop raced
// in virtual time over in-process EPP by two services on the same
// calibrated DropCatch schedule under tight per-accreditation create
// budgets, one holding 12 accreditations and one 2 (which wins every tie).
// Win counts scale with accreditation holdings — the economics behind three
// services controlling 75 % of all accreditations.
func BenchmarkAblationAccreditationRace(b *testing.B) {
	day := simtime.Day{Year: 2018, Month: time.March, Dom: 1}
	var rep *storm.Report
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(77))
		clock := simtime.NewSimClock(day.At(9, 0, 0))
		dir := registrars.BuildDirectory(rng)
		store := registry.NewStore(clock)
		for _, r := range dir.Registrars() {
			store.AddRegistrar(r)
		}
		sponsors := dir.Accreditations(registrars.SvcOther)
		lc := registry.DefaultLifecycleConfig()
		for j := 0; j < 60; j++ {
			sponsor := sponsors[rng.Intn(len(sponsors))]
			updated := lc.BatchInstant(day.AddDays(-35), sponsor)
			if _, err := store.SeedAt(fmt.Sprintf("bench-race%03d.com", j), sponsor, updated.AddDate(-2, 0, 0), updated,
				updated.AddDate(0, 0, -35), model.StatusPendingDelete, day); err != nil {
				b.Fatal(err)
			}
		}
		srv := epp.NewServer(store, clock, epp.ServerConfig{
			Credentials: dir.Credentials(),
			CreateBurst: 2,
			CreateRate:  0.2,
		})
		runner := registry.NewDropRunner(store, registry.DropConfig{
			StartHour: 19, BaseRatePerSec: 4, RateJitter: 0.2,
		})
		profile := func(svc string, n int) storm.ClientProfile {
			return storm.ClientProfile{
				Service: svc, Accreditations: dir.Accreditations(svc)[:n], Sessions: n,
				Schedule: registrars.StormSpecOf(registrars.SvcDropCatch).Schedule,
			}
		}
		var err error
		rep, err = storm.Run(storm.Config{
			Dial:       func() (*epp.Client, error) { return srv.ConnectInProc(), nil },
			Credential: dir.Credential,
			Drop:       runner.Schedule(day, rng),
			Release: func(batch []registry.Scheduled) error {
				for _, sc := range batch {
					if _, err := runner.Apply(sc); err != nil {
						return err
					}
				}
				return nil
			},
			Profiles: []storm.ClientProfile{profile(registrars.SvcXZ, 2), profile(registrars.SvcDropCatch, 12)},
			Clock:    clock,
		})
		srv.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
	small, big := rep.Profiles[0], rep.Profiles[1]
	b.ReportMetric(float64(big.Wins), "wins-12-accreditations")
	b.ReportMetric(float64(small.Wins), "wins-2-accreditations")
	b.ReportMetric(100*float64(big.Wins)/float64(big.Attempts), "create-success-pct(paper:<<1-for-dropcatch)")
}

// --- micro-benchmarks of the core algorithms -----------------------------

// BenchmarkCoreRank measures ranking one full-volume day.
func BenchmarkCoreRank(b *testing.B) {
	a, res := fineStudy(b)
	obs := dayRows(res.Observations, a.Days[0].Day)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.Rank(obs, core.OrderLastUpdate)
	}
}

// BenchmarkCoreGroupByDay measures cutting the whole fine study (three
// full-volume days) into ranked days: the one caller that reads every row's
// delete day, which a row unpacks from a day number on each call.
func BenchmarkCoreGroupByDay(b *testing.B) {
	_, res := fineStudy(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.GroupByDay(res.Observations, core.OrderLastUpdate)
	}
}

// dayRows copies out one deletion day's rows, in dataset order.
func dayRows(obs []dropzero.Observation, day dropzero.Day) []dropzero.Observation {
	var out []dropzero.Observation
	for i := range obs {
		if obs[i].DeleteDay() == day {
			out = append(out, obs[i])
		}
	}
	return out
}

// BenchmarkCoreBuildEnvelope measures envelope construction for one
// full-volume day.
func BenchmarkCoreBuildEnvelope(b *testing.B) {
	a, _ := fineStudy(b)
	ranked := a.Days[0].Ranked
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildEnvelope(ranked, core.DefaultEnvelopeConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreEarliestAt measures one earliest-time inference.
func BenchmarkCoreEarliestAt(b *testing.B) {
	a, _ := fineStudy(b)
	env := a.Days[0].Envelope
	total := a.Days[0].Total
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env.EarliestAt(i % total)
	}
}

// BenchmarkCoreIntervals measures adaptive interval construction over the
// full coarse dataset.
func BenchmarkCoreIntervals(b *testing.B) {
	a := coarseStudy(b)
	delays := core.AllDelays(a.Days)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.BuildIntervals(delays, 24*time.Hour, 800)
	}
}

// BenchmarkClusterRegistrars measures contact-based clustering of the whole
// accreditation directory.
func BenchmarkClusterRegistrars(b *testing.B) {
	_, res := fineStudy(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dropzero.ClusterRegistrars(res.Registrars)
	}
}

// --- measurement-pipeline throughput ------------------------------------

// pipelineBenchWorld is a registry with n pending .com deletions, shared by
// the throughput variants below.
type pipelineBenchWorld struct {
	store *registry.Store
	scope *dropscope.Client
	day   simtime.Day
	n     int
}

func newPipelineBenchWorld(b *testing.B, n int) *pipelineBenchWorld {
	b.Helper()
	day := simtime.Day{Year: 2018, Month: time.March, Dom: 5}
	clock := simtime.NewSimClock(day.At(9, 0, 0))
	store := registry.NewStore(clock)
	store.AddRegistrar(model.Registrar{IANAID: 1000, Name: "Sponsor"})
	lc := registry.DefaultLifecycleConfig()
	for i := 0; i < n; i++ {
		updated := lc.BatchInstant(day.AddDays(-35), 1000)
		name := fmt.Sprintf("bench-pipe%05d.com", i)
		if _, err := store.SeedAt(name, 1000, updated.AddDate(-2, 0, 0), updated,
			updated.AddDate(0, 0, -35), model.StatusPendingDelete, day); err != nil {
			b.Fatal(err)
		}
	}
	scopeSrv := dropscope.NewServer(store)
	scope, err := dropscope.NewClient("http://scope.bench", inproc.Client(scopeSrv.Handler()))
	if err != nil {
		b.Fatal(err)
	}
	return &pipelineBenchWorld{store: store, scope: scope, day: day, n: n}
}

// latencyHandler adds a fixed service delay to every request, modelling the
// network round trip a loopback connection does not have. On the real wire,
// per-lookup latency — not CPU — is what the worker pool hides.
type latencyHandler struct {
	h   http.Handler
	rtt time.Duration
}

func (l latencyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	time.Sleep(l.rtt)
	l.h.ServeHTTP(w, r)
}

// BenchmarkPipelineThroughput measures CollectDaily lookup fan-out,
// sequential vs an 8-worker pool: with the RDAP client bound to the server,
// as sim.Run has it — CPU-bound, so the pool gains what the cores allow —
// over real TCP, and over TCP with a simulated 300 µs RTT, where the pool
// hides the round trip and must sustain several times the sequential
// lookups/sec. Datasets stay byte-identical (see
// sim.TestRunDeterministicAcrossParallelism).
func BenchmarkPipelineThroughput(b *testing.B) {
	const nDomains = 300
	const rtt = 300 * time.Microsecond
	world := newPipelineBenchWorld(b, nDomains)
	ctx := context.Background()

	run := func(b *testing.B, rdapClient *rdap.Client, parallelism int) {
		b.Helper()
		lookups := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pipe := &measure.Pipeline{
				Lists:       world.scope,
				RDAP:        rdapClient,
				TLDFilter:   model.COM,
				Parallelism: parallelism,
			}
			if err := pipe.CollectDaily(ctx, world.day); err != nil {
				b.Fatal(err)
			}
			if st := pipe.Stats(); st.Lookups != world.n {
				b.Fatalf("lookups = %d, want %d", st.Lookups, world.n)
			}
			lookups += world.n
		}
		b.StopTimer()
		b.ReportMetric(float64(lookups)/b.Elapsed().Seconds(), "lookups/sec")
	}

	boundClient := rdap.NewBoundClient(rdap.NewServer(world.store, rdap.ServerConfig{}))
	b.Run("bound/seq", func(b *testing.B) { run(b, boundClient, 1) })
	b.Run("bound/par8", func(b *testing.B) { run(b, boundClient, 8) })

	tcpSrv := rdap.NewServer(world.store, rdap.ServerConfig{})
	addr, err := tcpSrv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer tcpSrv.Close()
	tcpClient, err := rdap.NewClient("http://"+addr.String(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("tcp/seq", func(b *testing.B) { run(b, tcpClient, 1) })
	b.Run("tcp/par8", func(b *testing.B) { run(b, tcpClient, 8) })

	rttSrv := httptest.NewServer(latencyHandler{h: tcpSrv.Handler(), rtt: rtt})
	defer rttSrv.Close()
	rttClient, err := rdap.NewClient(rttSrv.URL, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("tcp+rtt/seq", func(b *testing.B) { run(b, rttClient, 1) })
	b.Run("tcp+rtt/par8", func(b *testing.B) { run(b, rttClient, 8) })
}
