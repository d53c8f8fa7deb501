package core

import (
	"testing"
	"time"

	"dropzero/internal/model"
)

func TestAnalyzeDayDelays(t *testing.T) {
	// Ranks 0..9 deleted at seconds 0..9. Rank 4 re-registered 100 s late,
	// rank 7 not re-registered at all.
	var obs []model.Observation
	for i := 0; i < 10; i++ {
		switch i {
		case 4:
			obs = append(obs, obsAt(i, i+100))
		case 7:
			obs = append(obs, obsNoRereg(i))
		default:
			obs = append(obs, obsAt(i, i))
		}
	}
	da, err := AnalyzeDay(testDay, obs, DefaultEnvelopeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if da.Total != 10 {
		t.Fatalf("total = %d", da.Total)
	}
	if len(da.Delays) != 9 {
		t.Fatalf("delays = %d, want 9 (one never re-registered)", len(da.Delays))
	}
	byName := make(map[string]DelayResult)
	for _, d := range da.Delays {
		byName[d.Obs.Name()] = d
	}
	if d := byName["d4.com"]; d.Delay != 100*time.Second || d.Method != MethodInterpolated {
		t.Fatalf("rank 4: %+v", d)
	}
	if d := byName["d0.com"]; d.Delay != 0 || d.Method != MethodExact {
		t.Fatalf("rank 0: %+v", d)
	}
}

func TestAnalyzeDayNegativeDelayClamped(t *testing.T) {
	// Construct interpolation that rounds up past an observed point: the
	// resulting negative delay must clamp to zero.
	obs := []model.Observation{
		obsAt(0, 0),
		obsNoRereg(1),
		obsAt(2, 1), // on the curve
		obsAt(3, 1),
	}
	da, err := AnalyzeDay(testDay, obs, DefaultEnvelopeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range da.Delays {
		if d.Delay < 0 {
			t.Fatalf("negative delay %v for %s", d.Delay, d.Obs.Name())
		}
	}
}

func TestAnalyzeDayNextDayDelay(t *testing.T) {
	// A next-day re-registration gets its delay measured against the
	// deletion-day envelope.
	late := obsWith(2, &model.Rereg{Time: testDay.Next().At(3, 0, 0), RegistrarID: 9000})
	obs := []model.Observation{obsAt(0, 0), obsAt(1, 1), late}
	da, err := AnalyzeDay(testDay, obs, DefaultEnvelopeConfig())
	if err != nil {
		t.Fatal(err)
	}
	var found *DelayResult
	for i := range da.Delays {
		// Results point into the caller's slice; rows are not copied.
		if da.Delays[i].Obs == &obs[2] {
			found = &da.Delays[i]
		}
	}
	if found == nil {
		t.Fatal("next-day rereg missing from delays")
	}
	// Deleted ≈ 19:00:01 (clamped to curve end), re-registered 03:00 next
	// day → delay ≈ 8 h.
	if found.Delay < 7*time.Hour || found.Delay > 9*time.Hour {
		t.Fatalf("next-day delay = %v", found.Delay)
	}
}

func TestAnalyzeAllSkipsEmptyDays(t *testing.T) {
	day2 := testDay.Next()
	o2 := obsAt(1, 0)
	obs := []model.Observation{
		obsNoRereg(0),
		mkObs(o2.Name(), day2, o2.Prior(), &model.Rereg{Time: day2.At(19, 0, 0)}),
	}
	// testDay has no re-registrations → skipped; day2 has one.
	days, skipped := AnalyzeAll(obs, DefaultEnvelopeConfig())
	if skipped != 1 || len(days) != 1 {
		t.Fatalf("days=%d skipped=%d", len(days), skipped)
	}
	if days[0].Day != day2 {
		t.Fatalf("kept day = %v", days[0].Day)
	}
}

func TestDelayCDFDenominatorIsDeleted(t *testing.T) {
	// 4 deleted, 2 re-registered at 0 s → CDF at 0 must be 0.5 even though
	// 100 % of *re-registrations* are instant.
	obs := []model.Observation{obsAt(0, 0), obsAt(1, 0), obsNoRereg(2), obsNoRereg(3)}
	days, _ := AnalyzeAll(obs, DefaultEnvelopeConfig())
	cdf := DelayCDF(days, 24*time.Hour, []time.Duration{0, time.Hour})
	if cdf[0] != 0.5 || cdf[1] != 0.5 {
		t.Fatalf("cdf = %v", cdf)
	}
}

func TestDelayCDFHorizonFilter(t *testing.T) {
	late := obsWith(1, &model.Rereg{Time: testDay.AddDays(3).At(19, 0, 0), RegistrarID: 9000})
	obs := []model.Observation{obsAt(0, 0), late}
	days, _ := AnalyzeAll(obs, DefaultEnvelopeConfig())
	cdf := DelayCDF(days, 24*time.Hour, []time.Duration{24 * time.Hour})
	if cdf[0] != 0.5 {
		t.Fatalf("cdf with horizon = %v", cdf)
	}
}

func TestDelayCDFEmpty(t *testing.T) {
	out := DelayCDF(nil, time.Hour, []time.Duration{0, time.Second})
	if len(out) != 2 || out[0] != 0 || out[1] != 0 {
		t.Fatalf("empty cdf = %v", out)
	}
}

func TestMethodShares(t *testing.T) {
	obs := []model.Observation{obsAt(0, 0), obsNoRereg(1), obsAt(2, 0), obsAt(3, 50)}
	days, _ := AnalyzeAll(obs, DefaultEnvelopeConfig())
	shares := MethodShares(days)
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("method shares sum to %f", total)
	}
}

func TestTotalDeletedAndAllDelays(t *testing.T) {
	obs := []model.Observation{obsAt(0, 0), obsAt(1, 2), obsNoRereg(2)}
	days, _ := AnalyzeAll(obs, DefaultEnvelopeConfig())
	if got := TotalDeleted(days); got != 3 {
		t.Fatalf("TotalDeleted = %d", got)
	}
	if got := len(AllDelays(days)); got != 2 {
		t.Fatalf("AllDelays = %d", got)
	}
}
