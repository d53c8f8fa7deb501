package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"dropzero/internal/core"
	"dropzero/internal/model"
	"dropzero/internal/registrars"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	cfg := DefaultConfig()
	cfg.Scale = -1
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative scale accepted")
	}
}

func TestDailyVolumeBand(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 1
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		v := cfg.dailyVolume(i, rng)
		if v < 66000 || v > 112000 {
			t.Fatalf("day %d volume %d outside paper band", i, v)
		}
	}
}

func TestScaledDropKeepsDuration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.1
	d := cfg.scaledZoneDrop(zone.Default())
	if d.BaseRatePerSec <= 0 {
		t.Fatalf("scaled rate = %v", d.BaseRatePerSec)
	}
	// Mean volume / rate must stay near an hour regardless of scale.
	meanVolume := 89000.0 * cfg.Scale
	duration := meanVolume / d.BaseRatePerSec
	if duration < 2000 || duration > 6000 {
		t.Fatalf("scaled drop duration = %.0f s, want roughly an hour", duration)
	}
}

func TestRunProducesWellFormedObservations(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Observations) == 0 {
		t.Fatal("no observations")
	}
	for i := range res.Observations {
		o := &res.Observations[i]
		if o.TLD() != model.COM {
			t.Fatalf("non-.com observation %s (lookups are restricted to .com)", o.Name())
		}
		if o.PriorID() == 0 || o.PriorUpdated().IsZero() || o.PriorCreated().IsZero() {
			t.Fatalf("incomplete prior metadata: %+v", o.Prior())
		}
		if !o.PriorCreated().Before(o.PriorUpdated()) {
			t.Fatalf("%s created %v after updated %v", o.Name(), o.PriorCreated(), o.PriorUpdated())
		}
		if o.Reregistered() {
			dropStart := o.DeleteDay().At(19, 0, 0)
			if o.ReregTime().Before(dropStart) {
				t.Fatalf("%s re-registered at %v, before the Drop", o.Name(), o.ReregTime())
			}
		}
		if i > 0 && res.Observations[i-1].Name() >= o.Name() {
			t.Fatalf("dataset not sorted by name at row %d: %s then %s", i, res.Observations[i-1].Name(), o.Name())
		}
	}
}

// datedTruth is a Truth with the instant of the deletion it belongs to.
type datedTruth struct {
	Truth
	DeletedAt time.Time
}

// truthByName joins the per-day truth slices back to names through the
// deletion log they are index-aligned with.
func truthByName(t *testing.T, res *Result) map[string]datedTruth {
	t.Helper()
	out := make(map[string]datedTruth)
	for day, evs := range res.Deletions {
		if len(res.Truths[day]) != len(evs) {
			t.Fatalf("day %v: %d truths for %d deletions", day, len(res.Truths[day]), len(evs))
		}
		for k, ev := range evs {
			out[ev.Name()] = datedTruth{res.Truths[day][k], ev.Time()}
		}
	}
	return out
}

func TestRunGroundTruthConsistency(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every observation appears in exactly one day's ground-truth log, with
	// monotone ranks and times.
	for day, events := range res.Deletions {
		for i, ev := range events {
			if ev.Rank() != i {
				t.Fatalf("day %v rank %d at index %d", day, ev.Rank(), i)
			}
			if i > 0 && ev.Time().Before(events[i-1].Time()) {
				t.Fatalf("day %v times not monotone", day)
			}
		}
		if end := res.DropEnd[day]; len(events) > 0 && !end.Equal(events[len(events)-1].Time()) {
			t.Fatalf("day %v DropEnd mismatch", day)
		}
	}
	// Observed re-registrations must match ground-truth claims.
	truths := truthByName(t, res)
	for i := range res.Observations {
		o := &res.Observations[i]
		truth, ok := truths[o.Name()]
		if !ok {
			t.Fatalf("no ground truth for %s", o.Name())
		}
		registrar, delay, claimed := truth.Claim()
		if o.Reregistered() != claimed {
			t.Fatalf("%s rereg presence mismatch: obs=%v truth=%v", o.Name(), o.Reregistered(), claimed)
		}
		if o.Reregistered() {
			wantAt := simtime.Trunc(truth.DeletedAt.Add(delay))
			if !o.ReregTime().Equal(wantAt) {
				t.Fatalf("%s observed rereg %v != truth %v", o.Name(), o.ReregTime(), wantAt)
			}
			if o.ReregRegistrar() != registrar {
				t.Fatalf("%s rereg registrar %d != claim %d", o.Name(), o.ReregRegistrar(), registrar)
			}
		}
	}
}

func TestRunNetDomainsInterleaved(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	netSeen := false
	for _, events := range res.Deletions {
		for _, ev := range events {
			if ev.TLD() == model.NET {
				netSeen = true
			}
		}
	}
	if !netSeen {
		t.Fatal("no .net domains in the deletion queues")
	}
	// But none in the measured dataset (lookups restricted to .com).
	for _, o := range res.Observations {
		if o.TLD() == model.NET {
			t.Fatalf(".net domain %s in dataset", o.Name())
		}
	}
}

func TestRunPipelineExercisedFallback(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := res.PipelineStats
	if st.RDAPErrors == 0 || st.WHOISFallbacks == 0 {
		t.Fatalf("RDAP fault injection never exercised the WHOIS fallback: %+v", st)
	}
	if st.FallbackFailed != 0 {
		t.Fatalf("WHOIS fallback failed %d times", st.FallbackFailed)
	}
	if st.Lookups == 0 || st.OracleLookups == 0 {
		t.Fatalf("pipeline stats incomplete: %+v", st)
	}
}

// TestCalibrationHeadlines pins the scenario to the paper's aggregate
// numbers with generous tolerance bands (the strict per-figure bands live in
// the analysis package tests).
func TestCalibrationHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration needs a multi-day run")
	}
	cfg := DefaultConfig()
	cfg.Days = 10
	cfg.Scale = 0.05
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	days, _ := core.AnalyzeAll(res.Observations, core.DefaultEnvelopeConfig())
	total := core.TotalDeleted(days)
	zero, sameDay, in24h := 0, 0, 0
	for _, d := range core.AllDelays(days) {
		if d.Delay == 0 {
			zero++
		}
		if d.Obs.SameDayRereg() {
			sameDay++
		}
		if d.Delay <= 24*time.Hour {
			in24h++
		}
	}
	frac := func(n int) float64 { return float64(n) / float64(total) }
	if f := frac(zero); f < 0.075 || f > 0.115 {
		t.Errorf("zero-delay share = %.4f, want ≈0.095", f)
	}
	if f := frac(sameDay); f < 0.095 || f > 0.13 {
		t.Errorf("same-day share = %.4f, want ≈0.112", f)
	}
	if f := frac(in24h); f < 0.11 || f > 0.15 {
		t.Errorf("24h share = %.4f, want ≈0.13", f)
	}
}

// TestScaleSensitivity is ablation A3: headline ratios must be stable across
// simulation scales.
func TestScaleSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("scale sweep is slow")
	}
	zeroShares := make([]float64, 0, 2)
	for _, scale := range []float64{0.02, 0.05} {
		cfg := DefaultConfig()
		cfg.Days = 8
		cfg.Scale = scale
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		days, _ := core.AnalyzeAll(res.Observations, core.DefaultEnvelopeConfig())
		zero := 0
		for _, d := range core.AllDelays(days) {
			if d.Delay == 0 {
				zero++
			}
		}
		zeroShares = append(zeroShares, float64(zero)/float64(core.TotalDeleted(days)))
	}
	diff := zeroShares[0] - zeroShares[1]
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.02 {
		t.Errorf("zero-delay share unstable across scales: %v", zeroShares)
	}
}

func TestDirectoryShareHeadline(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	share := res.Directory.ShareOfAccreditations(
		registrars.SvcDropCatch, registrars.SvcSnapNames, registrars.SvcPheenix)
	if share < 0.65 || share > 0.85 {
		t.Errorf("top-3 accreditation share = %.2f, want ≈0.75", share)
	}
}

// TestSortByCreationIsTheStableSort: the key sort and in-place permutation
// order a population exactly as the stable sort of the specs did — ties,
// which whole-second creation times make common, included.
func TestSortByCreationIsTheStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, n := range []int{0, 1, 2, 7, 1000} {
		specs := make([]domainSpec, n)
		for i := range specs {
			specs[i] = domainSpec{
				name:        fmt.Sprintf("spec%04d.com", i),
				registrarID: i,
				created:     base.Add(time.Duration(rng.Intn(n/3+1)) * time.Second),
			}
		}
		want := slices.Clone(specs)
		slices.SortStableFunc(want, func(a, b domainSpec) int { return a.created.Compare(b.created) })
		sortByCreation(specs)
		if !slices.Equal(specs, want) {
			t.Fatalf("n=%d: order differs from the stable sort", n)
		}
	}
}
