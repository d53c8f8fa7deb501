package core

import (
	"math"
	"testing"
	"time"

	"dropzero/internal/model"
)

func TestFitRegressionRecoversLine(t *testing.T) {
	// Re-registrations exactly on time = 19:00 + rank/2 seconds.
	var obs []model.Observation
	for i := 0; i < 100; i++ {
		obs = append(obs, obsAt(i, i/2))
	}
	r := FitRegression(Rank(obs, OrderLastUpdate))
	if r == nil {
		t.Fatal("nil regression")
	}
	if math.Abs(r.SecPerRank-0.5) > 0.02 {
		t.Fatalf("slope = %f, want ≈0.5", r.SecPerRank)
	}
	if got := r.PredictAt(50); got.Sub(testDay.At(19, 0, 25)) > 2*time.Second ||
		testDay.At(19, 0, 25).Sub(got) > 2*time.Second {
		t.Fatalf("PredictAt(50) = %v", got)
	}
	if r.N() != 100 {
		t.Fatalf("N = %d", r.N())
	}
}

func TestFitRegressionTooFewPoints(t *testing.T) {
	if r := FitRegression(Rank([]model.Observation{obsAt(0, 0)}, OrderLastUpdate)); r != nil {
		t.Fatal("regression fit with one point")
	}
	if r := FitRegression(nil); r != nil {
		t.Fatal("regression fit with no points")
	}
}

func TestFitRegressionIgnoresNextDay(t *testing.T) {
	late := obsWith(2, &model.Rereg{Time: testDay.Next().At(4, 0, 0), RegistrarID: 9000})
	obs := []model.Observation{obsAt(0, 0), obsAt(1, 1), late}
	r := FitRegression(Rank(obs, OrderLastUpdate))
	if r == nil {
		t.Fatal("nil regression")
	}
	// Slope from two same-day points is 1 s/rank; a next-day point would
	// have wrecked it.
	if math.Abs(r.SecPerRank-1) > 0.01 {
		t.Fatalf("slope = %f", r.SecPerRank)
	}
}

func TestAccuracyStats(t *testing.T) {
	truth := []Point{
		{Rank: 0, Time: testDay.At(19, 0, 0)},
		{Rank: 1, Time: testDay.At(19, 0, 10)},
		{Rank: 2, Time: testDay.At(19, 0, 20)},
	}
	predict := func(rank int) time.Time {
		// Always 5 s late.
		return truth[rank].Time.Add(5 * time.Second)
	}
	st := Accuracy(truth, predict)
	if st.N != 3 || st.Mean != 5*time.Second || st.Median != 5*time.Second || st.Max != 5*time.Second {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAccuracyAbsoluteValue(t *testing.T) {
	truth := []Point{{Rank: 0, Time: testDay.At(19, 0, 10)}}
	st := Accuracy(truth, func(int) time.Time { return testDay.At(19, 0, 0) })
	if st.Mean != 10*time.Second {
		t.Fatalf("negative error not absolute: %+v", st)
	}
}

func TestAccuracyEmpty(t *testing.T) {
	st := Accuracy(nil, func(int) time.Time { return time.Time{} })
	if st.N != 0 || st.Mean != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
}

// The headline ablation property at unit scale: on data with stalls (a
// nonlinear deletion curve), the envelope's error stays within seconds while
// the straight-line fit drifts to minutes.
func TestEnvelopeBeatsRegressionOnNonlinearCurve(t *testing.T) {
	var obs []model.Observation
	var truth []Point
	sec := 0
	for i := 0; i < 2000; i++ {
		if i%500 == 499 {
			sec += 120 // stall: the real process pauses two minutes
		}
		if i%3 == 0 {
			sec++
		}
		obs = append(obs, obsAt(i, sec))
		truth = append(truth, Point{Rank: i, Time: testDay.At(19, 0, 0).Add(time.Duration(sec) * time.Second)})
	}
	ranked := Rank(obs, OrderLastUpdate)
	env, err := BuildEnvelope(ranked, EnvelopeConfig{TruncateGap: 3 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	regr := FitRegression(ranked)
	envStats := Accuracy(truth, func(rank int) time.Time {
		tm, _ := env.EarliestAt(rank)
		return tm
	})
	regStats := Accuracy(truth, regr.PredictAt)
	if envStats.Max > 2*time.Second {
		t.Fatalf("envelope max error = %v", envStats.Max)
	}
	if regStats.Mean < 10*time.Second {
		t.Fatalf("regression mean error suspiciously low: %v", regStats.Mean)
	}
	if regStats.Mean < 4*envStats.Mean {
		t.Fatalf("envelope should beat regression clearly: env=%v reg=%v",
			envStats.Mean, regStats.Mean)
	}
}
